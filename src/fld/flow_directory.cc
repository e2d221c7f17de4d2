#include "fld/flow_directory.h"

#include <algorithm>
#include <cmath>

#include "model/memory_model.h"
#include "util/bitops.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace fld::core {

namespace {
/** Shard-choice salt: the shard hash is the cuckoo banks' splitmix64
 *  finalizer, salted differently so shard choice and bank choice are
 *  independent. */
constexpr uint64_t kShardSalt = 0xabcdef1234567890ull;

/** One cuckoo shard per 16k flows keeps eviction chains short while
 *  bounding the mux a hardware sharder would need. */
constexpr uint64_t kFlowsPerShard = 16 * 1024;
constexpr uint32_t kMaxShards = 256;
} // namespace

FlowDirectory::Shard::Shard(uint64_t capacity, uint64_t seed)
    : xlt(capacity, /*banks=*/4, /*stash_size=*/4, seed)
{
    pool.resize(capacity);
    free_list.reserve(capacity);
    for (uint64_t i = 0; i < capacity; ++i)
        free_list.push_back(uint32_t(capacity - 1 - i));
}

FlowDirectory::FlowDirectory(FlowDirectoryConfig cfg) : cfg_(cfg)
{
    if (cfg_.flow_capacity == 0)
        fatal("FlowDirectory: flow_capacity must be positive");
    if (cfg_.shards == 0) {
        cfg_.shards = uint32_t(std::min<uint64_t>(
            kMaxShards,
            round_up_pow2(std::max<uint64_t>(
                1, cfg_.flow_capacity / kFlowsPerShard))));
    } else if (!is_pow2(cfg_.shards)) {
        fatal("FlowDirectory: shards must be a power of two");
    }
    if (cfg_.tenants == 0)
        cfg_.tenants = 1;
    // 12.5% per-shard slack: hash imbalance across shards must not
    // reject flows before the nominal capacity is reached.
    shard_capacity_ =
        ceil_div<uint64_t>(cfg_.flow_capacity * 9, 8 * cfg_.shards);
    if (cfg_.sketch.width == 0) {
        cfg_.sketch.width = uint32_t(round_up_pow2(
            std::max<uint64_t>(1024, cfg_.flow_capacity / 16)));
    }
    cfg_.sketch.seed = cfg_.seed ^ 0x5ce7c5u;

    shards_.reserve(cfg_.shards);
    for (uint32_t s = 0; s < cfg_.shards; ++s)
        shards_.emplace_back(shard_capacity_,
                             cfg_.seed + uint64_t(s) *
                                             0x9e3779b97f4a7c15ull);
    tenants_.resize(cfg_.tenants);
    sketch_ = HeavyHitterSketch(
        cfg_.sketch_enabled
            ? cfg_.sketch
            : SketchConfig{.width = 1, .depth = 1, .topk = 0});
}

uint32_t
FlowDirectory::shard_of(uint64_t key) const
{
    return uint32_t(splitmix64_finalize(key ^ (cfg_.seed + kShardSalt)) &
                    (cfg_.shards - 1));
}

size_t
FlowDirectory::shard_size(uint32_t s) const
{
    return shards_[s].xlt.size();
}

const CuckooTable&
FlowDirectory::shard_table(uint32_t s) const
{
    return shards_[s].xlt;
}

FlowDirectory::TenantStats&
FlowDirectory::tenant_slot(uint16_t t)
{
    return tenants_[t % cfg_.tenants];
}

const FlowDirectory::TenantStats&
FlowDirectory::tenant(uint16_t t) const
{
    return tenants_[t % cfg_.tenants];
}

bool
FlowDirectory::open_flow(uint64_t key, uint16_t tenant)
{
    Shard& sh = shards_[shard_of(key)];
    TenantStats& ts = tenant_slot(tenant);
    if (sh.xlt.lookup(key)) {
        stats_.duplicate_opens++;
        ts.rejects++;
        return false;
    }
    if (sh.free_list.empty()) {
        stats_.rejected_full++;
        ts.rejects++;
        return false;
    }
    uint32_t slot = sh.free_list.back();
    if (!sh.xlt.insert(key, slot)) {
        // Stash stall: hardware back-pressures the opener.
        stats_.rejected_stall++;
        ts.rejects++;
        return false;
    }
    sh.free_list.pop_back();
    sh.pool[slot] = FlowSlot{key, uint16_t(tenant % cfg_.tenants), 0, 0};
    ++size_;
    stats_.opens++;
    ts.flows_open++;
    ts.flows_opened++;
    return true;
}

bool
FlowDirectory::close_flow(uint64_t key)
{
    Shard& sh = shards_[shard_of(key)];
    auto slot = sh.xlt.lookup(key);
    if (!slot) {
        stats_.unknown_closes++;
        return false;
    }
    sh.xlt.erase(key);
    TenantStats& ts = tenants_[sh.pool[*slot].tenant];
    ts.flows_open--;
    ts.flows_closed++;
    sh.free_list.push_back(*slot);
    --size_;
    stats_.closes++;
    return true;
}

bool
FlowDirectory::record(uint64_t key, uint32_t bytes)
{
    Shard& sh = shards_[shard_of(key)];
    auto slot = sh.xlt.lookup(key);
    stats_.lookups++;
    if (!slot)
        return false;
    FlowSlot& f = sh.pool[*slot];
    f.packets++;
    f.bytes += bytes;
    TenantStats& ts = tenants_[f.tenant];
    ts.packets++;
    ts.bytes += bytes;
    stats_.packets++;
    stats_.bytes += bytes;
    if (cfg_.sketch_enabled)
        sketch_.update(key, bytes);
    return true;
}

bool
FlowDirectory::record_auto(uint64_t key, uint16_t tenant,
                           uint32_t bytes)
{
    if (record(key, bytes))
        return true;
    if (!open_flow(key, tenant))
        return false;
    stats_.auto_opens++;
    return record(key, bytes);
}

std::optional<FlowDirectory::FlowInfo>
FlowDirectory::find(uint64_t key) const
{
    const Shard& sh = shards_[shard_of(key)];
    auto slot = sh.xlt.lookup(key);
    if (!slot)
        return std::nullopt;
    const FlowSlot& f = sh.pool[*slot];
    return FlowInfo{f.key, f.tenant, f.packets, f.bytes};
}

size_t
FlowDirectory::memory_bytes() const
{
    size_t xlt = 0;
    for (const Shard& sh : shards_)
        xlt += sh.xlt.memory_bytes();
    size_t state =
        size_t(cfg_.shards) * shard_capacity_ * kFlowStateBytes;
    size_t tenants = tenants_.size() * kTenantStateBytes;
    size_t sketch = cfg_.sketch_enabled ? sketch_.memory_bytes() : 0;
    return xlt + state + tenants + sketch;
}

void
FlowDirectory::attach_budget(MemBudget& budget)
{
    budget_regs_.clear(); // releases a previous attachment
    size_t xlt = 0;
    for (const Shard& sh : shards_)
        xlt += sh.xlt.memory_bytes();
    budget_regs_.push_back(
        budget.scoped("flow xlt (cuckoo, sharded)", xlt));
    budget_regs_.push_back(budget.scoped(
        "flow state pool (24 B/flow)",
        uint64_t(cfg_.shards) * shard_capacity_ * kFlowStateBytes));
    budget_regs_.push_back(
        budget.scoped("flow tenant stats (32 B/tenant)",
                      uint64_t(tenants_.size()) * kTenantStateBytes));
    if (cfg_.sketch_enabled) {
        budget_regs_.push_back(budget.scoped(
            "flow heavy-hitter sketch", sketch_.memory_bytes()));
    }
}

std::string
FlowDirectory::reconcile_with_model(double tolerance) const
{
    model::FlowScaleParams p;
    p.flow_capacity = cfg_.flow_capacity;
    p.shards = cfg_.shards;
    p.shard_capacity = shard_capacity_;
    p.tenants = cfg_.tenants;
    if (cfg_.sketch_enabled) {
        p.sketch_width = cfg_.sketch.width;
        p.sketch_depth = cfg_.sketch.depth;
        p.sketch_topk = cfg_.sketch.topk;
    }
    model::FlowScaleBreakdown m = model::flow_directory_memory(p);

    size_t xlt = 0;
    for (const Shard& sh : shards_)
        xlt += sh.xlt.memory_bytes();
    double state =
        double(cfg_.shards) * double(shard_capacity_) * kFlowStateBytes;
    double tenants = double(tenants_.size()) * kTenantStateBytes;
    double sketch =
        cfg_.sketch_enabled ? double(sketch_.memory_bytes()) : 0.0;

    auto diverges = [&](const char* what, double actual,
                        double predicted) -> std::string {
        double base = std::max(predicted, 1.0);
        double rel = std::abs(actual - predicted) / base;
        if (rel <= tolerance)
            return {};
        return strfmt("flow directory %s: instantiated %.0f B vs "
                      "model %.0f B (%.1f%% > %.1f%% tolerance)",
                      what, actual, predicted, rel * 100.0,
                      tolerance * 100.0);
    };
    std::string why;
    if (!(why = diverges("cuckoo xlt", double(xlt), m.cuckoo)).empty())
        return why;
    if (!(why = diverges("flow state", state, m.flow_state)).empty())
        return why;
    if (!(why = diverges("tenant stats", tenants, m.tenant_stats))
             .empty())
        return why;
    if (!(why = diverges("sketch", sketch, m.sketch)).empty())
        return why;
    return diverges("total", double(memory_bytes()), m.total);
}

} // namespace fld::core
