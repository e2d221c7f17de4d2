/**
 * @file
 * Property battery for the compiled pipeline matcher and the
 * test-side reference executor (tests/nic/reference_steering.h):
 * randomized programs are checked entry-by-entry against a naive
 * shadow matcher (priority beats insertion order, ties
 * break by config order, masked keys follow (field & mask) == value,
 * ported keys demand a parsed L4 header), misses run the table's
 * default actions, goto chains always terminate inside kMaxDepth, and
 * Count actions conserve packets against sim::ConservationLedger.
 */
#include "nic/pipeline.h"

#include <vector>

#include <gtest/gtest.h>

#include "net/headers.h"
#include "net/toeplitz.h"
#include "sim/stats.h"
#include "tests/nic/reference_steering.h"
#include "util/rng.h"

namespace fld::nic {
namespace {

using reference::PipelineExecResult;

// ---------------------------------------------------------------------
// Naive shadow matcher: an independent re-statement of the matching
// semantics, scanning the *declarative* config directly.
// ---------------------------------------------------------------------

bool
shadow_field(const TernaryField& t, uint32_t v)
{
    return (v & t.mask) == (t.value & t.mask);
}

bool
shadow_matches(const PipelineKey& k, const FlowFields& f)
{
    if (!shadow_field(k.in_vport, f.in_vport))
        return false;
    if (!shadow_field(k.ethertype, f.ethertype))
        return false;
    if (!shadow_field(k.ip_proto, f.ip_proto))
        return false;
    if (!shadow_field(k.src_ip, f.src_ip))
        return false;
    if (!shadow_field(k.dst_ip, f.dst_ip))
        return false;
    if (k.sport.mask && (!f.has_l4 || !shadow_field(k.sport, f.sport)))
        return false;
    if (k.dport.mask && (!f.has_l4 || !shadow_field(k.dport, f.dport)))
        return false;
    if (!shadow_field(k.is_fragment, f.is_fragment ? 1 : 0))
        return false;
    if (!shadow_field(k.vni, f.vni))
        return false;
    if (!shadow_field(k.flow_tag, f.flow_tag))
        return false;
    return true;
}

/** Index of the winning entry of @p t for @p f, or -1: highest
 *  priority, ties broken by earliest config position. */
int
shadow_lookup(const PipelineTableConfig& t, const FlowFields& f)
{
    int best = -1;
    for (size_t i = 0; i < t.entries.size(); ++i) {
        if (!shadow_matches(t.entries[i].key, f))
            continue;
        if (best < 0 || t.entries[i].priority > t.entries[best].priority)
            best = int(i);
    }
    return best;
}

// ---------------------------------------------------------------------
// Random program / field generators (small domains so matches happen).
// ---------------------------------------------------------------------

/** Field value biased toward 0 so keys and packets coincide often. */
uint32_t
biased(fld::Rng& rng, uint32_t domain)
{
    return rng.chance(0.6) ? 0 : uint32_t(rng.uniform(domain));
}

TernaryField
random_tfield(fld::Rng& rng, uint32_t domain)
{
    switch (rng.uniform(10)) {
    case 0:
        return ternary_exact(biased(rng, domain));
    case 1:
        // Arbitrary mask, biased value: the compiler must normalize
        // value bits outside the mask away.
        return ternary_masked(biased(rng, domain),
                              uint32_t(rng.next()));
    case 2:
        return ternary_masked(uint32_t(rng.next()), 3);
    default:
        return {}; // wildcard
    }
}

PipelineKey
random_key(fld::Rng& rng)
{
    PipelineKey k;
    k.in_vport = random_tfield(rng, 4);
    k.ethertype = random_tfield(rng, 3);
    k.ip_proto = random_tfield(rng, 18);
    k.src_ip = random_tfield(rng, 5);
    k.dst_ip = random_tfield(rng, 5);
    k.sport = random_tfield(rng, 4);
    k.dport = random_tfield(rng, 4);
    k.is_fragment = random_tfield(rng, 2);
    k.vni = random_tfield(rng, 3);
    k.flow_tag = random_tfield(rng, 3);
    return k;
}

FlowFields
random_fields(fld::Rng& rng)
{
    FlowFields f;
    f.in_vport = VportId(biased(rng, 4));
    f.ethertype = uint16_t(biased(rng, 3));
    f.ip_proto = uint8_t(biased(rng, 18));
    f.src_ip = biased(rng, 5);
    f.dst_ip = biased(rng, 5);
    f.sport = uint16_t(biased(rng, 4));
    f.dport = uint16_t(biased(rng, 4));
    f.is_fragment = rng.chance(0.15);
    f.has_l4 = rng.chance(0.8);
    f.vni = biased(rng, 3);
    f.flow_tag = biased(rng, 3);
    return f;
}

/** Random program over tables 0..T-1 (match-only; no terminals). */
PipelineConfig
random_program(fld::Rng& rng, uint32_t tables, uint32_t max_entries)
{
    PipelineConfig cfg;
    for (uint32_t t = 0; t < tables; ++t) {
        PipelineTableConfig tab;
        tab.id = t;
        uint32_t n = rng.uniform(max_entries + 1);
        for (uint32_t e = 0; e < n; ++e) {
            PipelineEntryConfig ec;
            // Narrow priority range to make ties common.
            ec.priority = int(rng.uniform(4));
            ec.key = random_key(rng);
            ec.actions = {count_action(t * 100 + e)};
            tab.entries.push_back(std::move(ec));
        }
        cfg.tables.push_back(std::move(tab));
    }
    return cfg;
}

// ---------------------------------------------------------------------
// Matcher properties
// ---------------------------------------------------------------------

TEST(PipelineMatch, RandomProgramsAgreeWithShadowMatcher)
{
    fld::Rng rng(0x5ad0);
    uint64_t hits = 0, misses = 0;
    for (int trial = 0; trial < 150; ++trial) {
        uint32_t tables = 1 + rng.uniform(3);
        PipelineConfig cfg = random_program(rng, tables, 6);
        Pipeline p(cfg);
        for (int q = 0; q < 40; ++q) {
            FlowFields f = random_fields(rng);
            uint32_t t = rng.uniform(tables);
            const CompiledEntry* got = p.lookup(t, f);
            int want = shadow_lookup(cfg.tables[t], f);
            if (want < 0) {
                EXPECT_EQ(got, nullptr)
                    << "trial " << trial << " table " << t;
                misses++;
            } else {
                ASSERT_NE(got, nullptr)
                    << "trial " << trial << " table " << t
                    << " expected entry " << want;
                EXPECT_EQ(got->cfg_index, uint32_t(want))
                    << "trial " << trial << " table " << t;
                hits++;
            }
        }
    }
    // The domains are small enough that both outcomes must occur in
    // bulk — otherwise the property is vacuous.
    EXPECT_GT(hits, 500u);
    EXPECT_GT(misses, 500u);
}

TEST(PipelineMatch, PriorityBeatsInsertionOrderAndTiesDont)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig lo, hi, tie;
    lo.priority = 1;
    lo.actions = {count_action(0)};
    hi.priority = 9; // inserted later, still wins
    hi.actions = {count_action(1)};
    tie.priority = 9; // same priority, later: loses to hi
    tie.actions = {count_action(2)};
    t.entries = {lo, hi, tie};
    cfg.tables.push_back(t);

    Pipeline p(cfg);
    FlowFields f;
    const CompiledEntry* e = p.lookup(0, f);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->cfg_index, 1u);
    EXPECT_EQ(e->priority, 9);
}

TEST(PipelineMatch, MaskedValueBitsOutsideMaskAreNormalized)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig e;
    // Value 0xdead1234 under mask 0x0000ff00: only 0x12 matters.
    e.key.dst_ip = ternary_masked(0xdead1234, 0x0000ff00);
    e.actions = {count_action(0)};
    t.entries.push_back(e);
    cfg.tables.push_back(t);
    Pipeline p(cfg);

    FlowFields f;
    f.dst_ip = 0x00001200;
    EXPECT_NE(p.lookup(0, f), nullptr);
    f.dst_ip = 0xffff12ff; // same masked byte, different elsewhere
    EXPECT_NE(p.lookup(0, f), nullptr);
    f.dst_ip = 0x00001300;
    EXPECT_EQ(p.lookup(0, f), nullptr);
}

TEST(PipelineMatch, PortedKeysRequireParsedL4)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig e;
    e.key.dport = ternary_exact(0);
    e.actions = {count_action(0)};
    t.entries.push_back(e);
    cfg.tables.push_back(t);
    Pipeline p(cfg);

    FlowFields f;
    f.dport = 0;
    f.has_l4 = true;
    EXPECT_NE(p.lookup(0, f), nullptr)
        << "present-with-zero must match zero";
    f.has_l4 = false;
    EXPECT_EQ(p.lookup(0, f), nullptr)
        << "ported key must not match a fragment/non-L4 frame";
}

// ---------------------------------------------------------------------
// Executor properties
// ---------------------------------------------------------------------

TEST(PipelineExec, MissRunsDefaultActionsAndChains)
{
    PipelineConfig cfg;
    PipelineTableConfig t0, t1;
    t0.id = 0;
    PipelineEntryConfig never;
    never.priority = 5;
    never.key.ethertype = ternary_exact(0xffff);
    never.actions = {drop_action()};
    t0.entries.push_back(never);
    t0.default_actions = {count_action(1), goto_table(1)};
    t1.id = 1;
    t1.default_actions = {fwd_queue(5)};
    cfg.tables = {t0, t1};
    reference::Executor p(cfg);

    FlowFields f;
    auto r = p.execute(f, 0, 64);
    EXPECT_EQ(r.kind, PipelineExecResult::Kind::Queue);
    EXPECT_EQ(r.dest, 5u);
    EXPECT_EQ(r.tables_visited, 2u);
    EXPECT_EQ(p.counter(1), 64u);
}

TEST(PipelineExec, MissWithoutDefaultIsMiss)
{
    PipelineConfig cfg;
    cfg.tables.push_back({0, {}, {}});
    reference::Executor p(cfg);
    auto r = p.execute(FlowFields{});
    EXPECT_EQ(r.kind, PipelineExecResult::Kind::Miss);
    EXPECT_FALSE(r.delivered());
}

TEST(PipelineExec, SelfLoopHitsDepthLimitNotForever)
{
    PipelineConfig cfg;
    cfg.tables.push_back({0, {}, {goto_table(0)}});
    reference::Executor p(cfg);
    auto r = p.execute(FlowFields{});
    EXPECT_EQ(r.kind, PipelineExecResult::Kind::DepthExceeded);
    EXPECT_EQ(r.tables_visited, uint32_t(Pipeline::kMaxDepth));
}

TEST(PipelineExec, RandomGotoChainsAlwaysTerminate)
{
    fld::Rng rng(0x90709070);
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t tables = 1 + rng.uniform(4);
        PipelineConfig cfg = random_program(rng, tables, 4);
        // Sprinkle random gotos — self-loops, forward, backward, and
        // dangling targets included — plus occasional terminals.
        for (auto& tab : cfg.tables) {
            for (auto& e : tab.entries) {
                if (rng.chance(0.6))
                    e.actions.push_back(goto_table(rng.uniform(6)));
                else if (rng.chance(0.5))
                    e.actions.push_back(fwd_queue(rng.uniform(4)));
            }
            if (rng.chance(0.7))
                tab.default_actions = {goto_table(rng.uniform(6))};
        }
        reference::Executor p(cfg);
        for (int q = 0; q < 20; ++q) {
            auto r = p.execute(random_fields(rng),
                               rng.uniform(tables));
            EXPECT_LE(r.tables_visited, uint32_t(Pipeline::kMaxDepth))
                << "trial " << trial;
        }
    }
}

/**
 * Conservation: run a packet stream through programs whose every
 * table-0 entry and default counts, and account each outcome class.
 * ConservationLedger must balance exactly, and the table-0 counters
 * must sum to the offered packet count.
 */
TEST(PipelineExec, CountActionsConserveAgainstLedger)
{
    fld::Rng rng(0xc0471);
    for (int trial = 0; trial < 50; ++trial) {
        uint32_t tables = 1 + rng.uniform(3);
        PipelineConfig cfg = random_program(rng, tables, 4);
        for (auto& tab : cfg.tables) {
            for (auto& e : tab.entries) {
                switch (rng.uniform(4)) {
                case 0:
                    e.actions.push_back(fwd_queue(rng.uniform(4)));
                    break;
                case 1:
                    e.actions.push_back(drop_action());
                    break;
                case 2:
                    e.actions.push_back(goto_table(rng.uniform(tables)));
                    break;
                default:
                    break; // no terminal: NoTerminal outcome
                }
            }
            tab.default_actions = {count_action(9000 + tab.id),
                                   rng.chance(0.5)
                                       ? fwd_queue(0)
                                       : drop_action()};
        }
        // Front table: every offered packet bumps counter 8999 once
        // and then enters the random program at table 0.
        PipelineEntryConfig meter_all;
        meter_all.actions = {count_action(8999), goto_table(0)};
        PipelineTableConfig front;
        front.id = 999;
        front.entries.push_back(meter_all);
        cfg.tables.push_back(front);

        reference::Executor p(cfg);
        sim::ConservationLedger ledger;
        const uint32_t n = 200;
        for (uint32_t i = 0; i < n; ++i) {
            auto r = p.execute(random_fields(rng), 999, 1);
            ledger.tx++;
            if (r.delivered())
                ledger.rx++;
            else
                ledger.accounted_losses++; // Drop/Miss/NoTerminal/
                                           // DepthExceeded/AclDeny
        }
        EXPECT_EQ(ledger.check(), "") << "trial " << trial << ": "
                                      << ledger.summary();
        EXPECT_EQ(p.counter(8999), uint64_t(n)) << "trial " << trial;
    }
}

// ---------------------------------------------------------------------
// Programmable action field semantics
// ---------------------------------------------------------------------

TEST(PipelineExec, NatApplyFieldsHonorsFlagBits)
{
    FlowFields f;
    f.src_ip = 1;
    f.dst_ip = 2;
    f.sport = 3;
    f.dport = 4;

    f.has_l4 = true; // port rewrites are gated on a parsed L4 header
    reference::nat_apply_fields(f, nat_dst(77));
    EXPECT_EQ(f.dst_ip, 77u);
    EXPECT_EQ(f.dport, 4u) << "ip-only NAT must not touch the port";

    reference::nat_apply_fields(f, nat_dst(88, 99));
    EXPECT_EQ(f.dst_ip, 88u);
    EXPECT_EQ(f.dport, 99u);

    reference::nat_apply_fields(f, nat_src(55, 66));
    EXPECT_EQ(f.src_ip, 55u);
    EXPECT_EQ(f.sport, 66u);
    EXPECT_EQ(f.dst_ip, 88u) << "src NAT must not touch dst";
}

TEST(PipelineExec, VipSelectIsToeplitzModuloPool)
{
    std::vector<uint32_t> backends{10, 20, 30};
    fld::Rng rng(0x71e);
    for (int i = 0; i < 100; ++i) {
        FlowFields f = random_fields(rng);
        uint32_t hash = net::default_rss_table().ipv4(f.src_ip, f.dst_ip,
                                                      f.sport, f.dport);
        EXPECT_EQ(select_vip_backend(backends, f),
                  backends[hash % backends.size()]);
    }
}

TEST(PipelineExec, VipSelectExecuteRewritesDstAndMissingPoolDrops)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig e;
    e.priority = 1;
    e.actions = {vip_select(7), fwd_queue(2)};
    t.entries.push_back(e);
    cfg.tables.push_back(t);
    cfg.pools.push_back({7, {111, 222}});
    reference::Executor p(cfg);

    FlowFields f;
    f.src_ip = 9;
    f.has_l4 = true;
    auto r = p.execute(f);
    EXPECT_EQ(r.kind, PipelineExecResult::Kind::Queue);

    // Same program minus the pool definition: the select must drop,
    // not deliver to a stale destination.
    cfg.pools.clear();
    reference::Executor q(cfg);
    auto r2 = q.execute(f);
    EXPECT_EQ(r2.kind, PipelineExecResult::Kind::Drop);
}

TEST(PipelineExec, AclDenyReportsAclId)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig e;
    e.actions = {acl_deny(42)};
    t.entries.push_back(e);
    cfg.tables.push_back(t);
    reference::Executor p(cfg);
    auto r = p.execute(FlowFields{});
    EXPECT_EQ(r.kind, PipelineExecResult::Kind::AclDeny);
    EXPECT_EQ(r.dest, 42u);
    EXPECT_FALSE(r.delivered());
}

} // namespace
} // namespace fld::nic
