/**
 * @file
 * Lookup differential: the compiled default program
 * (`Pipeline(Pipeline::config_from(flows)).lookup`) must resolve every
 * lookup to the same rule as the reference eSwitch interpreter
 * (tests/nic/reference_steering.h) scanning the rule store directly.
 *
 * Two input families: random FlowMatch rulesets over small field
 * domains (present-with-zero fields, ported rules against fragments,
 * flow-tag matches, equal-priority ties, rule removal), and
 * eSwitch-shaped rulesets at 4/16/64/256 rules (VXLAN termination,
 * tenant tag chains, dport steering, src-scoped drops, a wildcard
 * floor) as the echo scenarios install them.
 */
#include <vector>

#include <gtest/gtest.h>

#include "net/headers.h"
#include "nic/pipeline.h"
#include "tests/nic/reference_steering.h"
#include "util/rng.h"

namespace fld::nic {
namespace {

/** Rule ids both engines pick for @p f in @p table (0 = miss). */
struct Resolution
{
    uint64_t reference = 0;
    uint64_t compiled = 0;
};

Resolution
resolve(const FlowTables& flows, const Pipeline& program, uint32_t table,
        const FlowFields& f)
{
    Resolution r;
    if (const FlowRule* rule = reference::lookup(flows, table, f))
        r.reference = rule->id;
    if (const CompiledEntry* e = program.lookup(table, f))
        r.compiled = e->rule_id;
    return r;
}

// ---------------------------------------------------------------------
// Random rulesets
// ---------------------------------------------------------------------

/** Value biased toward 0 so present-with-zero matches get exercised. */
uint32_t
biased(fld::Rng& rng, uint32_t domain)
{
    return rng.chance(0.5) ? 0 : uint32_t(rng.uniform(domain));
}

FlowMatch
random_match(fld::Rng& rng)
{
    FlowMatch m;
    auto maybe = [&](double p) { return rng.chance(p); };
    if (maybe(0.2))
        m.in_vport = VportId(biased(rng, 3));
    if (maybe(0.2))
        m.ethertype = uint16_t(biased(rng, 3));
    if (maybe(0.2))
        m.ip_proto = uint8_t(biased(rng, 3));
    if (maybe(0.15))
        m.src_ip = biased(rng, 4);
    if (maybe(0.15))
        m.dst_ip = biased(rng, 4);
    if (maybe(0.25))
        m.sport = uint16_t(biased(rng, 3));
    if (maybe(0.25))
        m.dport = uint16_t(biased(rng, 3));
    if (maybe(0.2))
        m.is_fragment = rng.chance(0.5);
    if (maybe(0.15))
        m.vni = biased(rng, 3);
    if (maybe(0.2))
        m.flow_tag = biased(rng, 3);
    return m;
}

FlowFields
random_fields(fld::Rng& rng)
{
    FlowFields f;
    f.in_vport = VportId(biased(rng, 3));
    f.ethertype = uint16_t(biased(rng, 3));
    f.ip_proto = uint8_t(biased(rng, 3));
    f.src_ip = biased(rng, 4);
    f.dst_ip = biased(rng, 4);
    f.is_fragment = rng.chance(0.2);
    // Fragments hide their ports: no parsed L4 header, whatever the
    // stale port fields say.
    f.has_l4 = !f.is_fragment && rng.chance(0.85);
    f.sport = uint16_t(biased(rng, 3));
    f.dport = uint16_t(biased(rng, 3));
    f.vni = biased(rng, 3);
    f.flow_tag = biased(rng, 3);
    return f;
}

TEST(SteeringDiff, RandomRulesetsResolveToTheSameRule)
{
    fld::Rng rng(0xd1ff);
    uint64_t hits = 0, misses = 0, fragment_queries = 0;
    for (int trial = 0; trial < 200; ++trial) {
        FlowTables flows;
        std::vector<uint64_t> ids;
        const uint32_t tables = 1 + rng.uniform(3);
        const uint32_t rules = rng.uniform(12);
        for (uint32_t i = 0; i < rules; ++i) {
            // Narrow priority range: equal-priority ties are common.
            ids.push_back(flows.add_rule(rng.uniform(tables),
                                         int(rng.uniform(3)),
                                         random_match(rng),
                                         {fwd_queue(i)}));
        }
        // Removal must keep the survivors' dispatch order.
        for (uint64_t id : ids)
            if (rng.chance(0.15))
                flows.remove_rule(id);

        Pipeline program(Pipeline::config_from(flows));
        for (int q = 0; q < 60; ++q) {
            FlowFields f = random_fields(rng);
            uint32_t table = rng.uniform(tables + 1); // one empty table
            Resolution r = resolve(flows, program, table, f);
            ASSERT_EQ(r.compiled, r.reference)
                << "trial " << trial << " table " << table;
            (r.reference ? hits : misses)++;
            fragment_queries += f.is_fragment;
        }
    }
    // Both outcomes must occur in bulk, or the property is vacuous.
    EXPECT_GT(hits, 2000u);
    EXPECT_GT(misses, 2000u);
    EXPECT_GT(fragment_queries, 1000u);
}

TEST(SteeringDiff, PresentWithZeroAndPortedRulesAgainstFragments)
{
    FlowTables flows;
    FlowMatch zero_port;
    zero_port.dport = 0; // present, and only accepts port 0 with L4
    uint64_t ported = flows.add_rule(0, 5, zero_port, {fwd_queue(1)});
    FlowMatch zero_tag;
    zero_tag.flow_tag = 0;
    uint64_t untagged = flows.add_rule(0, 5, zero_tag, {fwd_queue(2)});
    Pipeline program(Pipeline::config_from(flows));

    FlowFields l4;
    l4.has_l4 = true;
    FlowFields frag;
    frag.is_fragment = true; // ports zero but not parsed
    FlowFields tagged_frag = frag;
    tagged_frag.flow_tag = 7;

    for (const FlowFields& f : {l4, frag, tagged_frag}) {
        Resolution r = resolve(flows, program, 0, f);
        EXPECT_EQ(r.compiled, r.reference);
    }
    EXPECT_EQ(resolve(flows, program, 0, l4).compiled, ported);
    EXPECT_EQ(resolve(flows, program, 0, frag).compiled, untagged);
    EXPECT_EQ(resolve(flows, program, 0, tagged_frag).compiled, 0u);
}

// ---------------------------------------------------------------------
// eSwitch-shaped rulesets
// ---------------------------------------------------------------------

/** @p rules rules across tables 0 and 3, shaped like the echo
 *  scenarios' steering. */
FlowTables
eswitch_ruleset(uint32_t rules, fld::Rng& rng)
{
    FlowTables t;
    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    t.add_rule(0, 1000, vx, {vxlan_decap(), fwd_tir(1)});
    t.add_rule(0, 1, {}, {fwd_tir(1)});
    for (uint32_t i = 2; i < rules; ++i) {
        FlowMatch m;
        m.in_vport = kUplinkVport;
        std::vector<Action> acts;
        switch (i % 3) {
        case 0: // tenant tag chain: tag + count, resolve in table 3
            m.dport = uint16_t(1000 + i);
            acts = {set_tag(i), count_action(i), goto_table(3)};
            break;
        case 1: // plain dport steering
            m.dport = uint16_t(1000 + i);
            acts = {fwd_queue(i % 8)};
            break;
        default: // src-scoped drop
            m.src_ip = uint32_t(rng.next());
            acts = {drop_action()};
            break;
        }
        t.add_rule(0, int(10 + i % 50), m, std::move(acts));
    }
    FlowMatch tagged;
    tagged.flow_tag = 0;
    t.add_rule(3, 1, tagged, {fwd_queue(0)});
    return t;
}

TEST(SteeringDiff, EswitchShapedRulesetsResolveToTheSameRule)
{
    for (uint32_t rules : {4u, 16u, 64u, 256u}) {
        fld::Rng rng(0xbe9c + rules);
        FlowTables flows = eswitch_ruleset(rules, rng);
        Pipeline program(Pipeline::config_from(flows));
        uint64_t specific = 0; // hits above the wildcard floor
        for (int i = 0; i < 5000; ++i) {
            FlowFields f;
            f.in_vport = kUplinkVport;
            f.ethertype = net::kEtherTypeIpv4;
            f.ip_proto = net::kIpProtoUdp;
            f.src_ip = uint32_t(rng.next());
            f.dst_ip = uint32_t(rng.next());
            f.sport = uint16_t(rng.uniform(0xffff));
            f.dport = rng.chance(0.5) ? uint16_t(1000 + rng.uniform(rules))
                                      : uint16_t(rng.uniform(0xffff));
            f.has_l4 = true;
            f.flow_tag = rng.chance(0.2) ? uint32_t(rng.uniform(rules)) : 0;
            for (uint32_t table : {0u, 3u}) {
                Resolution r = resolve(flows, program, table, f);
                ASSERT_EQ(r.compiled, r.reference)
                    << rules << " rules, table " << table << ", field "
                    << i;
                specific += table == 0 && r.reference > 2;
            }
        }
        if (rules > 4)
            EXPECT_GT(specific, 0u) << rules << " rules";
    }
}

} // namespace
} // namespace fld::nic
