/**
 * @file
 * NIC-level steering behaviour of the compiled program: goto cycles are
 * counted drops rather than fatal errors, and rule or program changes
 * made between frames steer the very next frame (the lazy recompile
 * behind add_rule/remove_rule and the explicit-program freeze).
 */
#include <vector>

#include <gtest/gtest.h>

#include "net/headers.h"
#include "nic/nic.h"
#include "nic/pipeline.h"
#include "tests/nic/nic_test_fixture.h"

namespace fld::nic {
namespace {

using namespace fld::nic::testing;

/** One NIC with four RQs and a recorder of the RQ each frame reached. */
struct Rig
{
    Testbed tb;
    std::vector<Cqe> cqes;
    std::vector<uint32_t> rqns;
    std::vector<uint32_t> seen;

    Rig()
    {
        uint32_t cqn = tb.a->make_cq(64, &cqes);
        for (int i = 0; i < 4; ++i)
            rqns.push_back(tb.a->make_rq(64, cqn).rqn);
        nic().set_rx_delivery_probe(
            [this](uint32_t rqn, const net::Packet&) {
                seen.push_back(rqn);
            });
    }

    NicDevice& nic() { return *tb.a->nic; }

    /** Offer one UDP frame to @p dport on the uplink and run the NIC
     *  until it has been steered. */
    void offer(uint16_t dport)
    {
        nic().uplink().deliver(
            net::PacketBuilder()
                .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
                .ipv4(net::ipv4_addr(10, 0, 0, 2),
                      net::ipv4_addr(10, 0, 0, 1), net::kIpProtoUdp)
                .udp(4000, dport)
                .payload(std::vector<uint8_t>{1, 2, 3})
                .build());
        tb.eq.run();
    }

    /** RQ the most recent offer reached (~0u when none has). */
    uint32_t last() const { return seen.empty() ? ~0u : seen.back(); }
};

FlowMatch
to_port(uint16_t dport)
{
    FlowMatch m;
    m.dport = dport;
    return m;
}

// ---------------------------------------------------------------------
// Goto cycles
// ---------------------------------------------------------------------

TEST(NicSteering, GotoSelfLoopIsCountedNotFatal)
{
    Rig rig;
    rig.nic().add_rule(0, 0, {}, {goto_table(0)});
    rig.offer(80);
    EXPECT_EQ(rig.nic().stats().drops_rule, 1u);
    rig.offer(81);
    rig.offer(82);
    EXPECT_EQ(rig.nic().stats().drops_rule, 3u);
    EXPECT_TRUE(rig.seen.empty());
    EXPECT_EQ(rig.nic().stats().drops_no_rule, 0u);
}

TEST(NicSteering, TwoTableCycleSparesOtherFlows)
{
    Rig rig;
    NicDevice& nic = rig.nic();
    // dport 7 enters a 1 <-> 2 cycle; dport 9 resolves in table 3.
    nic.add_rule(0, 10, to_port(7), {count_action(1), goto_table(1)});
    nic.add_rule(0, 10, to_port(9), {goto_table(3)});
    nic.add_rule(1, 0, {}, {goto_table(2)});
    nic.add_rule(2, 0, {}, {goto_table(1)});
    nic.add_rule(3, 0, {}, {fwd_queue(rig.rqns[1])});

    for (int i = 0; i < 5; ++i) {
        rig.offer(7);
        rig.offer(9);
    }
    EXPECT_EQ(nic.stats().drops_rule, 5u);
    EXPECT_EQ(rig.seen, std::vector<uint32_t>(5, rig.rqns[1]))
        << "the good flow must keep being delivered";
    // Table 0's Count ran once per cycling frame (45 B each), however
    // many times the frame went round tables 1 and 2.
    EXPECT_EQ(nic.flows().counter(1), 5u * 45u);
}

TEST(NicSteering, GotoChainDepthLimitIsExact)
{
    // A chain visiting exactly kMaxDepth tables still delivers; one
    // more table is a counted drop.
    Rig rig;
    NicDevice& nic = rig.nic();
    const uint32_t depth = uint32_t(Pipeline::kMaxDepth);
    for (uint32_t t = 0; t + 1 < depth; ++t)
        nic.add_rule(t, 0, {}, {goto_table(t + 1)});
    uint64_t last = nic.add_rule(depth - 1, 0, {}, {fwd_queue(rig.rqns[2])});
    rig.offer(80);
    EXPECT_EQ(rig.last(), rig.rqns[2]);
    EXPECT_EQ(nic.stats().drops_rule, 0u);

    nic.remove_rule(last);
    nic.add_rule(depth - 1, 0, {}, {goto_table(depth)});
    nic.add_rule(depth, 0, {}, {fwd_queue(rig.rqns[2])});
    rig.offer(80);
    EXPECT_EQ(rig.seen.size(), 1u);
    EXPECT_EQ(nic.stats().drops_rule, 1u);
}

// ---------------------------------------------------------------------
// Rule and program changes mid-run
// ---------------------------------------------------------------------

/** Explicit one-table program sending everything to @p rqn. */
PipelineConfig
all_to(uint32_t rqn)
{
    PipelineConfig cfg;
    PipelineTableConfig t;
    t.id = 0;
    PipelineEntryConfig e;
    e.actions = {fwd_queue(rqn)};
    t.entries.push_back(e);
    cfg.tables.push_back(std::move(t));
    return cfg;
}

TEST(NicSteering, RuleChangesSteerTheNextFrame)
{
    Rig rig;
    NicDevice& nic = rig.nic();
    const auto& q = rig.rqns;

    nic.add_rule(0, 1, {}, {fwd_queue(q[0])});
    rig.offer(80);
    rig.offer(80);
    ASSERT_EQ(rig.last(), q[0]);

    uint64_t over = nic.add_rule(0, 10, {}, {fwd_queue(q[1])});
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[1]) << "add_rule must recompile";

    nic.remove_rule(over);
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[0]) << "remove_rule must recompile";

    nic.set_pipeline_program(all_to(q[2]));
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[2]) << "explicit program steers at once";

    nic.clear_pipeline_program();
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[0]) << "clear returns to the installed rules";

    // Rules installed under an explicit program wait for the clear.
    nic.set_pipeline_program(all_to(q[2]));
    nic.add_rule(0, 20, {}, {fwd_queue(q[3])});
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[2]) << "explicit program freezes rules";
    nic.clear_pipeline_program();
    rig.offer(80);
    EXPECT_EQ(rig.last(), q[3]);

    EXPECT_EQ(rig.seen.size(), 8u);
}

TEST(NicSteering, VportRxTableFollowsRuleChanges)
{
    // Frames hairpinned to a vport with an RX table use the table's
    // rules when one matches and the vport's default TIR otherwise.
    Rig rig;
    NicDevice& nic = rig.nic();
    VportId vp = nic.add_vport();
    nic.set_vport_rx_table(vp, 4);
    nic.set_vport_default_tir(vp, nic.create_tir({{rig.rqns[0]}}));
    nic.add_rule(0, 0, {}, {fwd_vport(vp)});

    rig.offer(80);
    ASSERT_EQ(rig.last(), rig.rqns[0]);

    uint64_t id = nic.add_rule(4, 0, to_port(80), {fwd_queue(rig.rqns[3])});
    rig.offer(80);
    EXPECT_EQ(rig.last(), rig.rqns[3]);
    rig.offer(81);
    EXPECT_EQ(rig.last(), rig.rqns[0]);

    nic.remove_rule(id);
    rig.offer(80);
    EXPECT_EQ(rig.last(), rig.rqns[0]);
}

} // namespace
} // namespace fld::nic
