#include "apps/pktgen.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/hash.h"
#include "util/logging.h"

namespace fld::apps {

namespace {

/** Deterministic filler for payload byte @p i of packet @p cookie. */
inline uint8_t
pattern_byte(uint64_t cookie, size_t i)
{
    return uint8_t((cookie * 131u) ^ (i * 7u));
}

} // namespace

size_t
imc_frame_size(Rng& rng)
{
    // Empirical approximation of Benson et al. [9]: bimodal packet
    // sizes — a heavy mass of small control/ACK packets and a second
    // mode at full MTU. Count-weighted average ~220 B, consistent
    // with the §8.1.1 packet-rate numbers.
    double u = rng.uniform_double();
    if (u < 0.66)
        return 64;
    if (u < 0.76)
        return 128;
    if (u < 0.86)
        return 256;
    if (u < 0.91)
        return 512;
    if (u < 0.95)
        return 1024;
    return 1500;
}

PacketGen::PacketGen(sim::EventQueue& eq, driver::CpuDriver& driver,
                     uint32_t queue, PktGenConfig cfg)
    : eq_(eq), driver_(driver), queue_(queue), cfg_(cfg),
      rng_(cfg.seed)
{
    driver_.set_rx_handler([this](uint32_t, net::Packet&& pkt) {
        on_rx(std::move(pkt));
    });
}

net::Packet
PacketGen::make_packet()
{
    size_t frame =
        cfg_.imc_mix ? imc_frame_size(rng_) : cfg_.frame_size;
    frame = std::max<size_t>(frame, 64);
    size_t payload = frame - net::kEthHeaderLen - net::kIpv4HeaderLen -
                     net::kUdpHeaderLen;

    std::vector<uint8_t> body(payload, 0);
    // Cookie + send timestamp for RTT matching.
    uint64_t cookie = next_cookie_++;
    if (payload >= 16) {
        store_le64(body.data(), cookie);
        store_le64(body.data() + 8, eq_.now());
        if (cfg_.pattern_payload)
            for (size_t i = 16; i < payload; ++i)
                body[i] = pattern_byte(cookie, i);
    }

    uint16_t sport =
        uint16_t(cfg_.base_sport + cookie % std::max(1u, cfg_.flows));
    net::Packet pkt = net::PacketBuilder()
                          .eth(cfg_.src_mac, cfg_.dst_mac)
                          .ipv4(cfg_.src_ip, cfg_.dst_ip,
                                net::kIpProtoUdp)
                          .udp(sport, cfg_.dport)
                          .payload(body)
                          .build();
    if (cfg_.vxlan)
        pkt = net::vxlan_encapsulate(pkt, cfg_.vni, cfg_.vxlan_src_ip,
                                     cfg_.vxlan_dst_ip, cfg_.src_mac,
                                     cfg_.dst_mac);
    return pkt;
}

void
PacketGen::start(sim::TimePs warmup, sim::TimePs duration)
{
    running_ = true;
    measure_start_ = eq_.now() + warmup;
    end_time_ = eq_.now() + duration;

    if (cfg_.offered_gbps > 0) {
        schedule_next_open_loop();
    } else {
        for (uint32_t i = 0; i < cfg_.window; ++i)
            send_one();
    }
}

void
PacketGen::send_one()
{
    if (!running_ || eq_.now() >= end_time_) {
        running_ = false;
        return;
    }
    if (cfg_.max_packets && tx_count_ >= cfg_.max_packets)
        return;
    net::Packet pkt = make_packet();
    size_t bytes = pkt.size();
    if (driver_.send(queue_, std::move(pkt))) {
        ++tx_count_;
        if (eq_.now() >= measure_start_)
            tx_meter_.record(eq_.now(), bytes);
    }
}

void
PacketGen::schedule_next_open_loop()
{
    if (!running_ || eq_.now() >= end_time_ ||
        (cfg_.max_packets && tx_count_ >= cfg_.max_packets)) {
        running_ = false;
        return;
    }
    net::Packet pkt = make_packet();
    size_t bytes = pkt.size();
    // Pace by serialized size at the offered rate (wire framing incl).
    sim::TimePs gap =
        sim::serialize_time(bytes + nic::kEthWireOverhead,
                            cfg_.offered_gbps);
    if (driver_.send(queue_, std::move(pkt))) {
        ++tx_count_;
        if (eq_.now() >= measure_start_)
            tx_meter_.record(eq_.now(), bytes);
    }
    eq_.schedule_in(gap, [this] { schedule_next_open_loop(); });
}

void
PacketGen::on_rx(net::Packet&& pkt)
{
    ++rx_count_;
    last_rx_ = eq_.now();
    if (eq_.now() >= measure_start_ && eq_.now() <= end_time_)
        rx_meter_.record(eq_.now(), pkt.size());

    if (cfg_.measure_rtt || cfg_.pattern_payload || cfg_.flow_digests) {
        net::ParsedPacket pp = net::parse(pkt);
        if (pp.payload_len >= 16) {
            const uint8_t* p = pkt.bytes() + pp.payload_offset;
            uint64_t cookie = load_le64(p);
            sim::TimePs sent = load_le64(p + 8);
            if (cfg_.measure_rtt && sent <= eq_.now() &&
                eq_.now() >= measure_start_ && eq_.now() <= end_time_) {
                rtt_us_.add(sim::to_us(eq_.now() - sent));
            }
            if (cfg_.pattern_payload) {
                for (size_t i = 16; i < pp.payload_len; ++i)
                    if (p[i] != pattern_byte(cookie, i)) {
                        ++bad_payload_;
                        break;
                    }
            }
            if (cfg_.flow_digests) {
                // Per-flow delivered-payload digest. Two timing
                // artifacts must not affect it: the send timestamp
                // (bytes 8..15) is masked, and per-packet hashes are
                // combined with wrapping addition because a flow
                // sprayed over several SQs can legitimately arrive
                // reordered (large frames serialize longer). Addition
                // is order-blind but still duplicate-sensitive.
                uint32_t flow =
                    uint32_t(cookie % std::max(1u, cfg_.flows));
                uint64_t h = fnv1a64(p, 8);
                uint64_t zero = 0;
                h = fnv1a64(&zero, 8, h);
                h = fnv1a64(p + 16, pp.payload_len - 16, h);
                flow_digests_[flow] += h;
            }
        }
    }
    // Closed loop: every response triggers the next request.
    if (cfg_.offered_gbps <= 0 && running_)
        send_one();
}

} // namespace fld::apps
