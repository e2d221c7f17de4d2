#include "stage_ledger.h"

#include <algorithm>
#include <numeric>

#include "stats.h"

namespace perfbench {

using fld::sim::TraceEvent;
using Kind = fld::sim::TraceEventKind;

const std::array<const char*, StageLedger::kStages>&
StageLedger::names()
{
    static const std::array<const char*, kStages> n = {
        "doorbell_to_payload_read", "payload_read_to_wire_tx",
        "wire_tx_to_wire_rx",       "wire_rx_to_payload_write",
        "payload_write_to_cqe",     "cqe_to_payload_read",
        "other",
    };
    return n;
}

size_t
classify_stage(Kind from, Kind to)
{
    struct Pair
    {
        Kind from, to;
    };
    static constexpr Pair chain[] = {
        {Kind::DoorbellWrite, Kind::PayloadRead},
        {Kind::PayloadRead, Kind::WireTx},
        {Kind::WireTx, Kind::WireRx},
        {Kind::WireRx, Kind::PayloadWrite},
        {Kind::PayloadWrite, Kind::CqeWrite},
        {Kind::CqeWrite, Kind::PayloadRead},
    };
    for (size_t i = 0; i < std::size(chain); ++i)
        if (chain[i].from == from && chain[i].to == to)
            return i;
    return StageLedger::kStages - 1;
}

void
StageLedger::add(const std::vector<TraceEvent>& events)
{
    // Group by id, keeping each id's events in emission order (which
    // is simulated-time order).
    std::vector<uint32_t> order;
    order.reserve(events.size());
    for (uint32_t i = 0; i < events.size(); ++i)
        if (events[i].corr != 0)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return events[a].corr < events[b].corr;
                     });

    for (size_t lo = 0; lo < order.size();) {
        size_t hi = lo;
        uint64_t corr = events[order[lo]].corr;
        while (hi < order.size() && events[order[hi]].corr == corr)
            ++hi;
        ++ids_;
        int64_t sum = 0;
        bool backwards = false;
        for (size_t k = lo + 1; k < hi; ++k) {
            const TraceEvent& a = events[order[k - 1]];
            const TraceEvent& b = events[order[k]];
            int64_t d = int64_t(b.time) - int64_t(a.time);
            samples_[classify_stage(a.kind, b.kind)].push_back(d);
            sum += d;
            backwards = backwards || d < 0;
        }
        int64_t span = int64_t(events[order[hi - 1]].time) -
                       int64_t(events[order[lo]].time);
        if (sum != span || backwards)
            ++sum_mismatches_;
        lo = hi;
    }
    for (auto& s : samples_)
        std::sort(s.begin(), s.end());
}

std::vector<std::string>
StageLedger::zero_spread_stages() const
{
    std::vector<std::string> out;
    for (size_t s = 0; s < kStages; ++s)
        if (!samples_[s].empty() &&
            samples_[s].front() == samples_[s].back())
            out.push_back(names()[s]);
    return out;
}

uint64_t
StageLedger::digest() const
{
    uint64_t h = kFnvSeed;
    for (const auto& s : samples_) {
        uint64_t n = s.size();
        h = fnv_fold(h, &n, sizeof n);
        h = fnv_fold(h, s.data(), s.size() * sizeof(int64_t));
    }
    h = fnv_fold(h, &ids_, sizeof ids_);
    return fnv_fold(h, &sum_mismatches_, sizeof sum_mismatches_);
}

} // namespace perfbench
