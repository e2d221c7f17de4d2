// Self-tests of the traced-run stage ledger.
#include <string>
#include <vector>

#include "check.h"
#include "stage_ledger.h"

using namespace perfbench;
using fld::sim::TraceEvent;
using Kind = fld::sim::TraceEventKind;

namespace {

TraceEvent
ev(fld::sim::TimePs t, Kind k, uint64_t corr)
{
    TraceEvent e;
    e.time = t;
    e.kind = k;
    e.corr = corr;
    return e;
}

size_t
stage_index(const char* name)
{
    for (size_t s = 0; s < StageLedger::kStages; ++s)
        if (std::string(StageLedger::names()[s]) == name)
            return s;
    return StageLedger::kStages;
}

void
test_chain_and_other()
{
    // Two interleaved ids; id 2 has a same-kind repeat ("other") and
    // uncorrelated events (corr 0) are ignored.
    std::vector<TraceEvent> t = {
        ev(0, Kind::DoorbellWrite, 1), ev(5, Kind::WqeFetch, 0),
        ev(10, Kind::PayloadRead, 1),  ev(12, Kind::PayloadRead, 2),
        ev(30, Kind::WireTx, 1),       ev(31, Kind::WireTx, 2),
        ev(31, Kind::WireTx, 2),       ev(90, Kind::WireRx, 1),
        ev(95, Kind::WireRx, 2),       ev(100, Kind::PayloadWrite, 1),
        ev(130, Kind::CqeWrite, 1),    ev(150, Kind::PayloadRead, 1),
    };
    StageLedger l;
    l.add(t);
    CHECK(l.ids() == 2);
    CHECK(l.sum_mismatches() == 0);
    auto at = [&](const char* n) { return l.samples(stage_index(n)); };
    CHECK(at("doorbell_to_payload_read") == std::vector<int64_t>{10});
    CHECK((at("payload_read_to_wire_tx") == std::vector<int64_t>{19, 20}));
    CHECK((at("wire_tx_to_wire_rx") == std::vector<int64_t>{60, 64}));
    CHECK(at("wire_rx_to_payload_write") == std::vector<int64_t>{10});
    CHECK(at("payload_write_to_cqe") == std::vector<int64_t>{30});
    CHECK(at("cqe_to_payload_read") == std::vector<int64_t>{20});
    CHECK(at("other") == std::vector<int64_t>{0});
    // Stage deltas of every id sum to its span: 150 + 83.
    int64_t total = 0;
    for (size_t s = 0; s < StageLedger::kStages; ++s)
        for (int64_t d : l.samples(s))
            total += d;
    CHECK(total == 150 + 83);
    // "other" holds a single value, so it is flagged as flat; so are
    // the single-sample chain stages.
    auto flat = l.zero_spread_stages();
    CHECK(flat.size() == 5);
    CHECK(flat.back() == "other");
}

void
test_backwards_time_is_flagged()
{
    std::vector<TraceEvent> t = {ev(50, Kind::WireTx, 7),
                                 ev(40, Kind::WireRx, 7)};
    StageLedger l;
    l.add(t);
    CHECK(l.sum_mismatches() == 1);
}

void
test_digest_tracks_samples()
{
    std::vector<TraceEvent> t = {ev(0, Kind::WireTx, 1),
                                 ev(10, Kind::WireRx, 1)};
    StageLedger a, b, c;
    a.add(t);
    b.add(t);
    t[1].time = 11;
    c.add(t);
    CHECK(a.digest() == b.digest());
    CHECK(a.digest() != c.digest());
}

} // namespace

void
run_stage_ledger_tests()
{
    CHECK(classify_stage(Kind::WireTx, Kind::WireRx) ==
          stage_index("wire_tx_to_wire_rx"));
    CHECK(classify_stage(Kind::WireRx, Kind::WireTx) ==
          stage_index("other"));
    test_chain_and_other();
    test_backwards_time_is_flagged();
    test_digest_tracks_samples();
}
