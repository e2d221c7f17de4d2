#include "apps/app_emu.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace fld::apps {

// ---------------------------------------------------------------------
// AppEmu (client)
// ---------------------------------------------------------------------

AppEmu::AppEmu(sim::EventQueue& eq, driver::FastPath& fp,
               AppEmuConfig cfg)
    : eq_(eq), fp_(fp), cfg_(cfg)
{
    cfg_.request_bytes =
        std::min(cfg_.request_bytes, fp_.slot_bytes());
    if (cfg_.request_bytes == 0)
        cfg_.request_bytes = 1;
    app_ = fp_.register_app(cfg_.tx_ring_entries, cfg_.rx_ring_entries,
                            [this] { on_notify(); });
    slots_.resize(cfg_.connections);
    send_queued_.assign(cfg_.connections, 0);
    total_incarnations_ = cfg_.connections * (cfg_.churn_cycles + 1);
    outcomes_.reserve(total_incarnations_);
}

uint16_t
AppEmu::port_for(uint32_t slot_index, uint32_t incarnation) const
{
    // Each incarnation gets a fresh port: the previous one may still
    // hold the old 4-tuple in time-wait.
    return uint16_t(cfg_.base_port +
                    incarnation * cfg_.connections + slot_index);
}

void
AppEmu::start()
{
    open_next_batch();
    if (!cfg_.closed_loop && !open_loop_timer_) {
        open_loop_timer_ = true;
        eq_.schedule_in(cfg_.send_interval, [this] { pacing_tick(); });
    }
}

void
AppEmu::pacing_tick()
{
    open_loop_timer_ = false;
    pump_sends();
    // Keep pacing until every incarnation reached a terminal state
    // (the final closes need no ticks, but the tick count is bounded
    // by run length, so simplicity wins).
    if (done_count_ < total_incarnations_ && !open_loop_timer_) {
        open_loop_timer_ = true;
        eq_.schedule_in(cfg_.send_interval, [this] { pacing_tick(); });
    }
}

void
AppEmu::open_slot(uint32_t slot_index, uint32_t incarnation)
{
    Slot& s = slots_[slot_index];
    s.incarnation = incarnation;
    s.requests_posted = 0;
    s.inflight_bytes = 0;
    s.opened = false;
    s.finished = false;
    s.outcome_index = uint32_t(outcomes_.size());

    ConnOutcome out;
    out.slot = slot_index;
    out.incarnation = incarnation;
    out.local_port = port_for(slot_index, incarnation);
    outcomes_.push_back(out);

    s.conn_id = fp_.open(app_, slot_index, cfg_.remote_ip,
                         cfg_.remote_port, out.local_port);
    if (s.conn_id == driver::FastPath::kNoConn) {
        // 4-tuple still busy (previous incarnation lingering): count
        // the incarnation as failed rather than hanging the run.
        outcomes_[s.outcome_index].reset = true;
        s.finished = true;
        ++done_count_;
        if (incarnation < cfg_.churn_cycles)
            eq_.schedule_in(cfg_.reopen_delay, [this, slot_index,
                                                incarnation] {
                open_slot(slot_index, incarnation + 1);
            });
        return;
    }
    by_conn_[s.conn_id] = slot_index;
}

void
AppEmu::open_next_batch()
{
    uint32_t n = 0;
    while (opens_issued_ < cfg_.connections && n < cfg_.open_batch) {
        open_slot(opens_issued_, 0);
        ++opens_issued_;
        ++n;
    }
    if (opens_issued_ < cfg_.connections)
        eq_.schedule_in(cfg_.open_interval,
                        [this] { open_next_batch(); });
}

void
AppEmu::on_notify()
{
    // Never touch rings from inside the stack's callback; batch all
    // work into one event on the queue (naturally coalescing several
    // notifies into one service pass).
    if (service_pending_)
        return;
    service_pending_ = true;
    eq_.schedule_in(0, [this] {
        service_pending_ = false;
        service();
    });
}

void
AppEmu::service()
{
    std::vector<uint32_t> touched;
    while (auto m = fp_.poll_ctrl(app_)) {
        handle_ctrl(*m);
        auto it = by_conn_.find(m->conn_id);
        if (it != by_conn_.end())
            touched.push_back(it->second);
    }

    // Drain TxDone completions.
    driver::DescRing& rx = fp_.rx_ring(app_);
    bool drained = false;
    while (!rx.empty()) {
        driver::RingDesc d;
        uint32_t ring_slot = rx.pop(&d);
        if (d.type == driver::kDescTxDone) {
            auto it = by_conn_.find(uint32_t(d.opaque));
            if (it != by_conn_.end()) {
                Slot& s = slots_[it->second];
                s.inflight_bytes -= std::min<uint64_t>(
                    s.inflight_bytes, d.len);
                outcomes_[s.outcome_index].acked_bytes += d.len;
                touched.push_back(it->second);
            }
        }
        rx.release(ring_slot);
        drained = true;
    }
    if (drained)
        fp_.rx_doorbell(app_);

    // Closed loop: only touched slots can have become sendable; a
    // full TX ring parks them on the send queue until the next pass.
    if (cfg_.closed_loop) {
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        for (uint32_t si : touched) {
            enqueue_send(si);
            maybe_close(si);
        }
        if (drain_send_queue()) {
            ++doorbells_;
            fp_.doorbell(app_);
        }
    } else {
        for (uint32_t si : touched)
            maybe_close(si);
    }
}

void
AppEmu::enqueue_send(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    if (send_queued_[slot_index] || !s.opened || s.finished ||
        s.inflight_bytes != 0 ||
        s.requests_posted >= cfg_.requests_per_conn)
        return;
    send_queued_[slot_index] = 1;
    send_queue_.push_back(slot_index);
}

bool
AppEmu::drain_send_queue()
{
    bool posted = false;
    while (!send_queue_.empty()) {
        if (fp_.tx_ring(app_).full())
            break; // keep the rest queued for the next TxDone drain
        uint32_t si = send_queue_.front();
        send_queue_.pop_front();
        send_queued_[si] = 0;
        Slot& s = slots_[si];
        // Re-validate: the slot may have finished or been reset while
        // it sat on the queue.
        if (s.opened && !s.finished && s.inflight_bytes == 0 &&
            s.requests_posted < cfg_.requests_per_conn)
            posted |= post_request(si);
    }
    return posted;
}

void
AppEmu::handle_ctrl(const driver::CtrlMsg& m)
{
    auto it = by_conn_.find(m.conn_id);
    if (it == by_conn_.end())
        return;
    Slot& s = slots_[it->second];
    ConnOutcome& out = outcomes_[s.outcome_index];
    switch (m.type) {
    case driver::CtrlMsg::Type::Opened:
        s.opened = true;
        out.opened = true;
        break;
    case driver::CtrlMsg::Type::Closed:
    case driver::CtrlMsg::Type::Reset: {
        if (m.type == driver::CtrlMsg::Type::Closed)
            out.closed = true;
        else
            out.reset = true;
        ++done_count_;
        uint32_t slot_index = it->second;
        uint32_t inc = s.incarnation;
        by_conn_.erase(it);
        s.finished = true;
        if (inc < cfg_.churn_cycles)
            eq_.schedule_in(cfg_.reopen_delay,
                            [this, slot_index, inc] {
                                open_slot(slot_index, inc + 1);
                            });
        break;
    }
    case driver::CtrlMsg::Type::Accepted:
        break; // clients never listen
    }
}

bool
AppEmu::post_request(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    driver::DescRing& tx = fp_.tx_ring(app_);
    if (tx.full()) {
        ++tx_ring_full_;
        return false;
    }
    uint32_t len = cfg_.request_bytes;
    uint32_t ring_slot = tx.next_slot();
    uint64_t addr = uint64_t(ring_slot) * fp_.slot_bytes();
    uint8_t* buf = fp_.tx_arena(app_) + addr;
    ConnOutcome& out = outcomes_[s.outcome_index];
    for (uint32_t j = 0; j < len; ++j)
        buf[j] = pattern_byte(slot_index, s.incarnation,
                              s.requests_posted, j);

    driver::RingDesc d;
    d.opaque = s.conn_id;
    d.addr = addr;
    d.len = len;
    d.flags = driver::kDescFlagPush;
    d.type = driver::kDescData;
    if (!tx.post(d)) {
        ++tx_ring_full_;
        return false;
    }
    out.sent_digest =
        fnv1a64(buf, len, out.sent_digest ? out.sent_digest : kFnvBasis);
    out.sent_bytes += len;
    s.inflight_bytes += len;
    ++s.requests_posted;
    return true;
}

void
AppEmu::pump_sends()
{
    // Open loop: one request per sendable slot per pacing tick.
    bool posted = false;
    for (uint32_t si = 0; si < slots_.size(); ++si) {
        Slot& s = slots_[si];
        if (s.opened && !s.finished &&
            s.requests_posted < cfg_.requests_per_conn)
            posted |= post_request(si);
        maybe_close(si);
    }
    if (posted) {
        ++doorbells_;
        fp_.doorbell(app_);
    }
}

void
AppEmu::maybe_close(uint32_t slot_index)
{
    Slot& s = slots_[slot_index];
    if (s.opened && !s.finished &&
        s.requests_posted == cfg_.requests_per_conn &&
        s.inflight_bytes == 0)
        fp_.close(s.conn_id); // Closed ctrl finishes the incarnation
}

// ---------------------------------------------------------------------
// SinkApp (server)
// ---------------------------------------------------------------------

SinkApp::SinkApp(sim::EventQueue& eq, driver::FastPath& fp,
                 SinkAppConfig cfg)
    : eq_(eq), fp_(fp), cfg_(cfg)
{
    app_ = fp_.register_app(cfg_.tx_ring_entries, cfg_.rx_ring_entries,
                            [this] { on_notify(); });
    fp_.listen(cfg_.listen_port, app_);
}

void
SinkApp::on_notify()
{
    if (drain_pending_)
        return;
    drain_pending_ = true;
    eq_.schedule_in(cfg_.drain_delay, [this] {
        drain_pending_ = false;
        drain();
    });
}

void
SinkApp::drain()
{
    // Slow path first so data descriptors always find their flow.
    while (auto m = fp_.poll_ctrl(app_)) {
        switch (m->type) {
        case driver::CtrlMsg::Type::Accepted: {
            conn_port_[m->conn_id] = m->key.remote_port;
            SinkFlow& f = flows_[m->key.remote_port];
            f.key = m->key;
            ++accepted_;
            break;
        }
        case driver::CtrlMsg::Type::Closed: {
            auto it = conn_port_.find(m->conn_id);
            if (it != conn_port_.end())
                flows_[it->second].closed = true;
            ++closed_;
            break;
        }
        case driver::CtrlMsg::Type::Reset: {
            auto it = conn_port_.find(m->conn_id);
            if (it != conn_port_.end())
                flows_[it->second].reset = true;
            ++resets_;
            break;
        }
        case driver::CtrlMsg::Type::Opened:
            break; // sinks never open actively
        }
    }

    driver::DescRing& rx = fp_.rx_ring(app_);
    bool drained = false;
    while (!rx.empty()) {
        driver::RingDesc d;
        uint32_t ring_slot = rx.pop(&d);
        if (d.type == driver::kDescData) {
            auto it = conn_port_.find(uint32_t(d.opaque));
            if (it != conn_port_.end()) {
                SinkFlow& f = flows_[it->second];
                const uint8_t* bytes = fp_.rx_arena(app_) + d.addr;
                f.digest = fnv1a64(bytes, d.len,
                                   f.digest ? f.digest : kFnvBasis);
                f.bytes += d.len;
            }
        }
        rx.release(ring_slot);
        drained = true;
    }
    if (drained)
        fp_.rx_doorbell(app_);
}

} // namespace fld::apps
