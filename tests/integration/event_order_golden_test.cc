/**
 * @file
 * Whole-system golden for the event order: a 50-seed fld_fuzz sweep
 * spanning all four scenario families (EthEcho with and without
 * compiled-pipeline decoration, ConnServe, RpcServe), each run once
 * and held to a pinned table of verdicts and transcript hashes. A
 * transcript folds in every delivered payload digest, trace hash,
 * counter and oracle verdict, so any change to the {when, seq} order
 * the timing wheel executes shows up here.
 *
 * The table was recorded while the retired binary-heap engine still
 * lived in sim::EventQueue, at a tree where a differential run of this
 * sweep under both engines was byte-identical; it therefore pins the
 * heap's order as well as the wheel's. The unit-level differential
 * against a reference queue lives in tests/sim/timing_wheel_test.cc.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "tools/fuzz/fuzz_modes.h"

namespace fld::apps {
namespace {

/** Seed -> scenario, sized down to regression-test budgets and with
 *  the mode rotated so the sweep covers every family. */
sim::FuzzScenario
scenario_for(uint64_t seed)
{
    sim::ScenarioFuzzer fuzzer;
    sim::FuzzScenario s = fuzzer.generate(seed);
    switch (seed % 4) {
    case 0:
        s.workload.mode = sim::FuzzMode::EthEcho;
        s.pipeline.enabled = false;
        break;
    case 1:
        s.workload.mode = sim::FuzzMode::EthEcho;
        s.pipeline.enabled = true; // compiled-pipeline dimension
        break;
    case 2:
        s.workload.mode = sim::FuzzMode::ConnServe;
        break;
    default:
        s.workload.mode = sim::FuzzMode::RpcServe;
        break;
    }
    s.workload.packets = std::min(s.workload.packets, 16u);
    s.conn.connections = std::min(s.conn.connections, 8u);
    s.conn.requests = std::min(s.conn.requests, 2u);
    s.rpc.connections = std::min(s.rpc.connections, 4u);
    s.rpc.requests = std::min(s.rpc.requests, 2u);
    return s;
}

/** A seed's verdict and transcript hash, as recorded. */
struct Pinned
{
    uint64_t seed;
    bool ok;
    uint64_t transcript_hash;
};

constexpr Pinned kPinned[] = {
    {1, true, 0xee0271a7bd0f7123ull},
    {2, true, 0x369f7b08d643aec2ull},
    {3, true, 0x1aaf17e6a50dd9e2ull},
    {4, true, 0x57d76ba5cf7b9ad4ull},
    {5, true, 0x46b17c2991a83c64ull},
    {6, true, 0xd628cd95d5a39eb8ull},
    {7, true, 0xcde76a1b403bdd4eull},
    {8, true, 0x4b4fd20cb154e4adull},
    {9, true, 0x4826ce6621881594ull},
    {10, true, 0x5f484c76e2034243ull},
    {11, true, 0x449b156ed4c6312eull},
    {12, true, 0x5b28d370fa5d4054ull},
    {13, true, 0x6bc89d5121bd7d40ull},
    {14, true, 0x8a436b425490aa17ull},
    {15, true, 0xf5e90d72fb1425cbull},
    {16, true, 0x3120d0a3afa66348ull},
    {17, true, 0x4faa7d4960bb2ee9ull},
    {18, true, 0x06373c049c172a76ull},
    {19, true, 0xe1cfcdfc88c80f40ull},
    {20, true, 0xeb9099e4fbe3dbafull},
    {21, true, 0x04c7d46da11cd4caull},
    {22, true, 0x34b92ab507fe6830ull},
    {23, true, 0xa2acb996ad321593ull},
    {24, true, 0x3aa17e1a72671b72ull},
    {25, true, 0xa435ca2b67811fe1ull},
    {26, true, 0x1b857419e1a4e663ull},
    {27, true, 0x49d2144768c4b672ull},
    {28, true, 0x98a8c767585350c7ull},
    {29, true, 0xa261b18f9a21045cull},
    {30, true, 0x6ed4467643ec0a59ull},
    {31, true, 0xd93b8ba074ad03ecull},
    {32, true, 0x7ec1b11ef9422344ull},
    {33, true, 0x087cfb745675e925ull},
    {34, true, 0x79e031d99791af5full},
    {35, true, 0xfda937b8fce41fc6ull},
    {36, true, 0x420256cd8330fc21ull},
    {37, true, 0x93c03a7a6b5cbd5cull},
    {38, true, 0x1d1342793485bdf5ull},
    {39, true, 0x3d2ee2985f2b8c78ull},
    {40, true, 0xd34346be19977225ull},
    {41, true, 0xa4900d79d8612174ull},
    {42, true, 0xe68d86bd5dae5135ull},
    {43, true, 0x799b495497f8b050ull},
    {44, true, 0x9a1179c24a98b1c3ull},
    {45, true, 0x67d83ab21ea1e817ull},
    {46, true, 0x0968493dca597790ull},
    {47, true, 0x16f7f5b7d9b3f805ull},
    {48, true, 0x0550a11f23d6ed97ull},
    {49, true, 0xf0856a2ead9eb816ull},
    {50, true, 0x087df62b7846ff25ull},
};

TEST(EventOrderGolden, FiftySeedSweepMatchesPinnedTranscripts)
{
    for (const Pinned& p : kPinned) {
        FuzzVerdict v =
            FuzzRunner(fuzz_runner_options()).run(scenario_for(p.seed));
        EXPECT_EQ(v.ok, p.ok) << "seed " << p.seed << "\n" << v.transcript;
        EXPECT_EQ(v.transcript_hash, p.transcript_hash)
            << "seed " << p.seed << ": event order drifted";
    }
}

} // namespace
} // namespace fld::apps
