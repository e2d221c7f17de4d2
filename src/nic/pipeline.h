/**
 * @file
 * Programmable multi-table match-action pipeline: the NIC's one
 * steering engine.
 *
 * A declarative `PipelineConfig` — numbered tables of prioritized
 * entries with masked/ternary keys over the parsed field vector,
 * per-table default action lists, and VIP pools — is compiled into a
 * flat, allocation-free executable form (`Pipeline`), in the spirit of
 * hXDP's on-NIC packet programs and Stratum's pipeline processor.
 * `NicDevice::run_pipeline` walks the compiled program for every
 * steered frame.
 *
 * Rules installed through the rte_flow-like API (flow_table.h) become
 * the *default program* via `Pipeline::config_from(FlowTables)`: same
 * priority order, same tie-break by installation order, and the
 * optional-field semantics of `FlowMatch` — a present-with-zero match
 * only accepts zero, and port matches require a parsed L4 header.
 * The reference interpreter that states those semantics directly over
 * `FlowTables`, and a standalone reference executor, live under
 * tests/nic/reference_steering.h.
 *
 * The action set is `nic::Action`, including three programmable kinds:
 * ACL deny, NAT header rewrite, and VIP load-balancer backend select.
 */
#ifndef FLD_NIC_PIPELINE_H
#define FLD_NIC_PIPELINE_H

#include <cstdint>
#include <vector>

#include "nic/flow_table.h"

namespace fld::nic {

// ---------------------------------------------------------------------
// Declarative program description
// ---------------------------------------------------------------------

/** One ternary key component: packet field & mask must equal value.
 *  mask == 0 is a wildcard; mask == ~0u an exact match. The compiler
 *  normalizes value to value & mask. */
struct TernaryField
{
    uint32_t value = 0;
    uint32_t mask = 0;
};

/** Exact-match component (mask all ones). */
TernaryField ternary_exact(uint32_t value);
/** Masked component (compile normalizes value &= mask). */
TernaryField ternary_masked(uint32_t value, uint32_t mask);

/**
 * Ternary key over the parsed field vector. Field extraction is the
 * parser stage: FlowFields::of takes eth/IPv4/TCP-UDP/VXLAN fields
 * from net::parse plus metadata (vport, tag). Semantics mirror
 * FlowMatch: sport/dport components with a non-zero mask additionally
 * require a parsed L4 header (fragments never match a ported key).
 */
struct PipelineKey
{
    TernaryField in_vport;
    TernaryField ethertype;
    TernaryField ip_proto;
    TernaryField src_ip;
    TernaryField dst_ip;
    TernaryField sport;
    TernaryField dport;
    TernaryField is_fragment; ///< field value is 0/1
    TernaryField vni;
    TernaryField flow_tag;
};

/** One prioritized entry of a table. */
struct PipelineEntryConfig
{
    int priority = 0; ///< higher wins; ties break by config order
    PipelineKey key;
    std::vector<Action> actions;
    /** Source FlowRule id for config_from programs (0 otherwise);
     *  Drop events report it. */
    uint64_t rule_id = 0;
};

struct PipelineTableConfig
{
    uint32_t id = 0;
    std::vector<PipelineEntryConfig> entries;
    /** Executed on table miss. Empty = miss drops (drops_no_rule),
     *  which is all a config_from program ever does. */
    std::vector<Action> default_actions;
};

/** VIP load-balancer pool referenced by VipSelect actions;
 *  NicDevice::set_pipeline_program adds it to the NIC's pool table. */
struct VipPoolConfig
{
    uint32_t id = 0;
    std::vector<uint32_t> backends; ///< backend IPv4 addresses
};

struct PipelineConfig
{
    std::vector<PipelineTableConfig> tables;
    std::vector<VipPoolConfig> pools;
};

// ---------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------

/** A compiled entry: flat key + a span into the action vector. */
struct CompiledEntry
{
    PipelineKey key;
    int priority = 0;
    uint32_t cfg_index = 0; ///< insertion order within its table
    uint32_t action_begin = 0;
    uint32_t action_count = 0;
    uint64_t rule_id = 0; ///< source FlowRule id (config_from programs)
};

/**
 * The compiled program: entries and actions in contiguous vectors,
 * tables as spans, priorities pre-sorted at compile time so the match
 * loop is a straight masked scan with no allocation, no optional
 * unwrapping and no map hops.
 */
class Pipeline
{
  public:
    /** Goto-chain depth limit; a frame still steering after this many
     *  tables is dropped (drops_rule). */
    static constexpr int kMaxDepth = 16;

    Pipeline() = default;
    explicit Pipeline(const PipelineConfig& cfg) { compile(cfg); }

    /** Compile a declarative config, replacing any previous program.
     *  Entries are grouped by table id (duplicate table blocks merge
     *  in config order) and sorted by descending priority, stable in
     *  config order — exactly FlowTables' dispatch order. */
    void compile(const PipelineConfig& cfg);

    /** Express the installed rules as a declarative program (the
     *  default program). */
    static PipelineConfig config_from(const FlowTables& flows);

    /** Highest-priority matching entry of @p table, or null. */
    const CompiledEntry* lookup(uint32_t table, const FlowFields& f) const;

    /** Action span of a matched entry. */
    const Action* actions(const CompiledEntry& e) const
    {
        return actions_.data() + e.action_begin;
    }

    /** Default-action span of @p table (count 0 when absent). */
    void default_actions(uint32_t table, const Action*& acts,
                         size_t& count) const;

    /** True when @p key accepts @p f (parser-aware ternary match). */
    static bool key_matches(const PipelineKey& key, const FlowFields& f);

  private:
    struct CompiledTable
    {
        uint32_t id = 0;
        uint32_t entry_begin = 0;
        uint32_t entry_count = 0;
        uint32_t default_begin = 0;
        uint32_t default_count = 0;
    };

    const CompiledTable* find_table(uint32_t id) const;

    std::vector<CompiledTable> tables_; ///< sorted by id
    std::vector<CompiledEntry> entries_;
    std::vector<Action> actions_;
};

/** Deterministic VIP backend choice: Toeplitz flow hash over the
 *  4-tuple, modulo the pool size. Precondition: backends non-empty. */
uint32_t select_vip_backend(const std::vector<uint32_t>& backends,
                            const FlowFields& f);

/** NAT flag bits carried in Action::arg0 (see nat_dst/nat_src). */
constexpr uint32_t kNatDstIp = 1u << 0;   ///< arg1 = new dst ip
constexpr uint32_t kNatDstPort = 1u << 1; ///< arg2 & 0xffff = new dport
constexpr uint32_t kNatSrcIp = 1u << 2;   ///< arg3 = new src ip
constexpr uint32_t kNatSrcPort = 1u << 3; ///< arg2 >> 16 = new sport

} // namespace fld::nic

#endif // FLD_NIC_PIPELINE_H
