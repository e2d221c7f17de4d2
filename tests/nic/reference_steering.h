/**
 * @file
 * Reference steering implementations the compiled pipeline is checked
 * against. They live only under tests/ so src/ keeps exactly one
 * steering engine (nic::Pipeline, walked by NicDevice::run_pipeline).
 *
 * - `lookup`/`matches`: the fixed eSwitch interpreter, scanning the
 *   FlowTables rule store directly with FlowMatch's optional-field
 *   semantics. `Pipeline::config_from` must resolve every lookup to
 *   the same rule.
 * - `Executor`: a standalone executor over extracted fields. It walks a
 *   compiled program the way NicDevice::run_pipeline walks actions
 *   (goto continues the entry's remaining actions, a missing terminal
 *   drops, the goto chain stops at Pipeline::kMaxDepth) but mutates
 *   only the field vector; packet-body actions (decap/encap/meter) are
 *   field-level no-ops.
 */
#ifndef FLD_TESTS_NIC_REFERENCE_STEERING_H
#define FLD_TESTS_NIC_REFERENCE_STEERING_H

#include <cstdint>
#include <map>
#include <vector>

#include "nic/flow_table.h"
#include "nic/pipeline.h"

namespace fld::nic::reference {

/** True when every present field of @p m equals @p f's; port matches
 *  additionally require a parsed L4 header. */
bool matches(const FlowMatch& m, const FlowFields& f);

/** Highest-priority matching rule of @p table, or null (equal
 *  priorities resolve in installation order). */
const FlowRule* lookup(const FlowTables& flows, uint32_t table,
                       const FlowFields& f);

/** Outcome of Executor::execute. */
struct PipelineExecResult
{
    enum class Kind : uint8_t {
        Miss,          ///< table miss with no default actions
        NoTerminal,    ///< action list ended without terminal or goto
        DepthExceeded, ///< goto chain ran past kMaxDepth tables
        Drop,
        AclDeny,
        Queue,
        Tir,
        Vport,
        Accel,
    };
    Kind kind = Kind::Miss;
    uint32_t dest = 0;       ///< rqn / tir / vport / acl id
    uint32_t next_table = 0; ///< Accel: resume table
    uint32_t final_tag = 0;  ///< flow tag after execution
    uint32_t tables_visited = 0;

    /** True when the packet reached a delivery destination. */
    bool delivered() const
    {
        return kind == Kind::Queue || kind == Kind::Tir ||
               kind == Kind::Vport || kind == Kind::Accel;
    }
};

/** Apply a NatRewrite action to extracted fields (no packet body). */
void nat_apply_fields(FlowFields& f, const Action& act);

/** Compiled program plus the state its actions touch: VIP pools from
 *  the config and Count-action accumulators. */
class Executor
{
  public:
    explicit Executor(const PipelineConfig& cfg);

    /** Run @p f from @p start_table; @p bytes feeds Count actions. */
    PipelineExecResult execute(FlowFields f, uint32_t start_table = 0,
                               uint64_t bytes = 1);

    /** Count-action accumulator. */
    uint64_t counter(uint32_t counter_id) const;

  private:
    Pipeline program_;
    std::map<uint32_t, std::vector<uint32_t>> pools_;
    std::map<uint32_t, uint64_t> counters_;
};

} // namespace fld::nic::reference

#endif // FLD_TESTS_NIC_REFERENCE_STEERING_H
