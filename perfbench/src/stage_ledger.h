/**
 * @file
 * Per-stage latency ledger built from a recorded sim::Tracer run.
 *
 * Events sharing a correlation id are one packet's lifecycle. Each
 * pair of consecutive events of an id is one stage, named after the
 * two event kinds ("wire_tx_to_wire_rx"). The datapath chain doorbell
 * -> payload read -> wire TX -> wire RX -> payload write -> CQE, plus
 * the echo turnaround CQE -> payload read, gets a stage each; every
 * other pair (same-kind repeats of a segmented message, a TX CQE ahead
 * of the wire, fault events, ...) goes to "other", so an id's stage
 * deltas always account for its whole first-to-last span. WQE fetches
 * are batch events traced without a correlation id, so no stage ends
 * at one.
 */
#ifndef PERFBENCH_STAGE_LEDGER_H
#define PERFBENCH_STAGE_LEDGER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace perfbench {

class StageLedger
{
  public:
    static constexpr size_t kStages = 7;
    /** Stage names in reporting order; the last one is "other". */
    static const std::array<const char*, kStages>& names();

    /** Fold every correlated event of @p events into the ledger. */
    void add(const std::vector<fld::sim::TraceEvent>& events);

    /** Deltas of stage @p s in picoseconds, ascending. */
    const std::vector<int64_t>& samples(size_t s) const
    {
        return samples_[s];
    }
    /** Correlation ids with at least one event. */
    uint64_t ids() const { return ids_; }
    /** Ids whose stage deltas did not sum to their first-to-last span,
     *  or ran backwards in time (must stay 0). */
    uint64_t sum_mismatches() const { return sum_mismatches_; }
    /** Stages with samples whose minimum equals their maximum. */
    std::vector<std::string> zero_spread_stages() const;
    /** Digest of every sample, to prove traced reruns identical. */
    uint64_t digest() const;

  private:
    std::array<std::vector<int64_t>, kStages> samples_;
    uint64_t ids_ = 0;
    uint64_t sum_mismatches_ = 0;
};

/** Stage index for a consecutive event pair of one correlation id. */
size_t classify_stage(fld::sim::TraceEventKind from,
                      fld::sim::TraceEventKind to);

} // namespace perfbench

#endif // PERFBENCH_STAGE_LEDGER_H
