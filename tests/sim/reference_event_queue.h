/**
 * @file
 * Reference event queue the timing wheel is checked against. It lives
 * only under tests/ so src/ keeps exactly one event-ordering engine
 * (sim::EventQueue).
 *
 * The contract is the total order {when, seq}: events run by timestamp,
 * and events for the same tick run in scheduling order. Here that
 * order is simply the key of a std::map, with none of the wheel's
 * buckets, cascades, drain list or memo. Scheduling into the past
 * clamps to now(), so the event runs this tick after every previously
 * scheduled same-tick event — the wheel's rule (which also asserts in
 * debug builds).
 */
#ifndef FLD_TESTS_SIM_REFERENCE_EVENT_QUEUE_H
#define FLD_TESTS_SIM_REFERENCE_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "sim/time.h"

namespace fld::sim::reference {

class EventQueue
{
  public:
    TimePs now() const { return now_; }
    size_t pending() const { return events_.size(); }

    template <typename F>
    void schedule_at(TimePs when, F&& fn)
    {
        if (when < now_)
            when = now_;
        events_.emplace(Key{when, next_seq_++},
                        std::function<void()>(std::forward<F>(fn)));
    }

    template <typename F>
    void schedule_in(TimePs delay, F&& fn)
    {
        schedule_at(now_ + delay, std::forward<F>(fn));
    }

    /** Run until the queue drains. Returns events executed. */
    uint64_t run() { return drain(false, 0); }

    /** Run events with timestamp <= @p deadline, then park the clock
     *  on the deadline. Returns events executed. */
    uint64_t run_until(TimePs deadline)
    {
        uint64_t executed = drain(true, deadline);
        if (now_ < deadline)
            now_ = deadline;
        return executed;
    }

    /** Drop every pending event; safe from inside a callback. */
    void clear() { events_.clear(); }

  private:
    using Key = std::pair<TimePs, uint64_t>; // {when, seq}

    uint64_t drain(bool bounded, TimePs deadline)
    {
        uint64_t executed = 0;
        while (!events_.empty()) {
            auto it = events_.begin();
            if (bounded && it->first.first > deadline)
                break;
            now_ = it->first.first;
            std::function<void()> fn = std::move(it->second);
            events_.erase(it);
            fn();
            ++executed;
        }
        return executed;
    }

    TimePs now_ = 0;
    uint64_t next_seq_ = 0;
    std::map<Key, std::function<void()>> events_;
};

} // namespace fld::sim::reference

#endif // FLD_TESTS_SIM_REFERENCE_EVENT_QUEUE_H
