/**
 * @file
 * RpcDispatcher conformance and cost-model tests.
 *
 * Conformance pins rpc_execute's per-method semantics against
 * independent re-implementations written here (a map-based
 * reassembler for defrag, the documented key-schedule plus the
 * crypto-layer cipher for zuc, a direct FNV receipt for busy) — the
 * dispatcher must produce byte-identical responses through its own
 * path. The cost-model tests pin the worker bank: serial occupancy on
 * one worker, parallel completion across the bank, and the
 * setup+serialization service-time formula.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "apps/rpc_client.h" // build_defrag_payload
#include "apps/rpc_service.h"
#include "crypto/zuc.h"
#include "sim/event_queue.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fld::apps {
namespace {

std::vector<uint8_t>
random_payload(Rng& rng, size_t len)
{
    std::vector<uint8_t> p(len);
    for (auto& b : p)
        b = uint8_t(rng.next());
    return p;
}

/** Dispatch one request and run the queue to completion. */
rpc::Frame
run_one(RpcDispatcher& disp, sim::EventQueue& eq, uint8_t method,
        uint64_t id, const std::vector<uint8_t>& payload)
{
    rpc::Frame req;
    req.method = method;
    req.request_id = id;
    req.payload = payload;
    rpc::Frame resp;
    bool done = false;
    EXPECT_TRUE(disp.dispatch(std::move(req), [&](rpc::Frame&& r) {
        resp = std::move(r);
        done = true;
    }));
    eq.run();
    EXPECT_TRUE(done);
    return resp;
}

TEST(RpcDispatch, EchoConformance)
{
    sim::EventQueue eq;
    RpcDispatcher disp(eq, {});
    Rng rng(1);
    for (int i = 0; i < 8; ++i) {
        auto p = random_payload(rng, size_t(rng.range(0, 300)));
        rpc::Frame r = run_one(disp, eq, kRpcEcho, uint64_t(i), p);
        EXPECT_EQ(r.method, kRpcEcho);
        EXPECT_EQ(r.request_id, uint64_t(i));
        EXPECT_EQ(r.payload, p); // independent expectation: identity
    }
}

TEST(RpcDispatch, ZucConformance)
{
    sim::EventQueue eq;
    RpcDispatcher disp(eq, {});
    Rng rng(2);
    for (int i = 0; i < 8; ++i) {
        uint64_t id = rng.next();
        auto p = random_payload(rng, size_t(rng.range(1, 200)));
        rpc::Frame r = run_one(disp, eq, kRpcZuc, id, p);

        // Independent expectation: the documented key schedule --
        // key[i] = (id >> 8*(i mod 8)) + i * 0x9e, count = low word,
        // bearer = bits [32,37), direction = bit 37 -- applied through
        // the crypto layer directly.
        crypto::Zuc::Key key;
        for (size_t k = 0; k < key.size(); ++k)
            key[k] = uint8_t((id >> (8 * (k & 7))) + k * 0x9e);
        std::vector<uint8_t> expect = p;
        crypto::eea3_crypt(key, uint32_t(id), uint8_t((id >> 32) & 0x1f),
                           uint8_t((id >> 37) & 1), expect.data(),
                           expect.size() * 8);
        EXPECT_EQ(r.payload, expect);
        // Sanity: the cipher actually transformed the bytes.
        EXPECT_NE(r.payload, p);
    }
}

TEST(RpcDispatch, ZucKeyDependsOnRequestId)
{
    sim::EventQueue eq;
    RpcDispatcher disp(eq, {});
    std::vector<uint8_t> p(64, 0x42);
    rpc::Frame a = run_one(disp, eq, kRpcZuc, 1, p);
    rpc::Frame b = run_one(disp, eq, kRpcZuc, 2, p);
    EXPECT_NE(a.payload, b.payload);
}

TEST(RpcDispatch, DefragConformance)
{
    sim::EventQueue eq;
    RpcDispatcher disp(eq, {});
    Rng rng(3);
    for (int i = 0; i < 10; ++i) {
        uint32_t datum_len = uint32_t(rng.range(1, 900));
        Rng payload_rng(uint64_t(1000 + i));
        auto p = build_defrag_payload(payload_rng, datum_len);

        // Independent expectation: byte-map reassembly of the chunk
        // records, last write wins, extent = max(off + len).
        std::map<size_t, uint8_t> bytes;
        size_t extent = 0;
        for (size_t pos = 0; pos + 4 <= p.size();) {
            size_t off = size_t(p[pos]) | size_t(p[pos + 1]) << 8;
            size_t len = size_t(p[pos + 2]) | size_t(p[pos + 3]) << 8;
            if (pos + 4 + len > p.size())
                break;
            for (size_t k = 0; k < len; ++k)
                bytes[off + k] = p[pos + 4 + k];
            extent = std::max(extent, off + len);
            pos += 4 + len;
        }
        std::vector<uint8_t> expect(extent, 0);
        for (const auto& [off, b] : bytes)
            expect[off] = b;

        rpc::Frame r = run_one(disp, eq, kRpcDefrag, uint64_t(i), p);
        ASSERT_EQ(r.payload.size(), datum_len);
        EXPECT_EQ(r.payload, expect);
    }
}

TEST(RpcDispatch, BusyConformance)
{
    sim::EventQueue eq;
    RpcDispatcher disp(eq, {});
    Rng rng(4);
    auto p = random_payload(rng, 123);
    rpc::Frame r = run_one(disp, eq, kRpcBusy, 9, p);
    ASSERT_EQ(r.payload.size(), 12u);
    uint64_t d = fnv1a64(p.data(), p.size());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(r.payload[size_t(i)], uint8_t(d >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(r.payload[size_t(8 + i)],
                  uint8_t(uint32_t(p.size()) >> (8 * i)));
}

TEST(RpcDispatch, RejectsUnknownMethodAndOversize)
{
    sim::EventQueue eq;
    RpcServiceConfig cfg;
    cfg.max_payload = 64;
    RpcDispatcher disp(eq, cfg);

    rpc::Frame bad_method;
    bad_method.method = kRpcMethodCount;
    EXPECT_FALSE(
        disp.dispatch(std::move(bad_method), [](rpc::Frame&&) {
            FAIL() << "rejected dispatch must not complete";
        }));

    rpc::Frame oversize;
    oversize.method = kRpcEcho;
    oversize.payload.resize(65);
    EXPECT_FALSE(disp.dispatch(std::move(oversize), [](rpc::Frame&&) {
        FAIL() << "rejected dispatch must not complete";
    }));
    eq.run();
    EXPECT_EQ(disp.stats().rejected, 2u);
    EXPECT_EQ(disp.stats().dispatched, 0u);
    EXPECT_TRUE(disp.idle());
}

TEST(RpcDispatch, SingleWorkerSerializesRequests)
{
    sim::EventQueue eq;
    RpcServiceConfig cfg;
    cfg.workers = 1;
    RpcDispatcher disp(eq, cfg); // busy = 2us pure setup
    std::vector<sim::TimePs> completions;
    for (int i = 0; i < 3; ++i) {
        rpc::Frame f;
        f.method = kRpcBusy;
        f.request_id = uint64_t(i);
        ASSERT_TRUE(disp.dispatch(std::move(f), [&](rpc::Frame&&) {
            completions.push_back(eq.now());
        }));
    }
    eq.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0], sim::microseconds(2));
    EXPECT_EQ(completions[1], sim::microseconds(4));
    EXPECT_EQ(completions[2], sim::microseconds(6));
    EXPECT_EQ(disp.stats().busy_time, sim::microseconds(6));
}

TEST(RpcDispatch, WorkerBankRunsInParallel)
{
    sim::EventQueue eq;
    RpcServiceConfig cfg;
    cfg.workers = 4;
    RpcDispatcher disp(eq, cfg);
    std::vector<sim::TimePs> completions;
    for (int i = 0; i < 4; ++i) {
        rpc::Frame f;
        f.method = kRpcBusy;
        ASSERT_TRUE(disp.dispatch(std::move(f), [&](rpc::Frame&&) {
            completions.push_back(eq.now());
        }));
    }
    eq.run();
    ASSERT_EQ(completions.size(), 4u);
    for (sim::TimePs t : completions)
        EXPECT_EQ(t, sim::microseconds(2)); // all four in parallel
}

TEST(RpcDispatch, ServiceTimeIsSetupPlusSerialization)
{
    RpcHandlerModel m{sim::nanoseconds(100), 5.4};
    EXPECT_EQ(m.service_time(0), sim::nanoseconds(100));
    EXPECT_EQ(m.service_time(1024),
              sim::nanoseconds(100) + sim::serialize_time(1024, 5.4));
    RpcHandlerModel pure{sim::microseconds(2), 0.0};
    EXPECT_EQ(pure.service_time(1 << 20), sim::microseconds(2));
}

/**
 * Overload conformance: a worker bank saturated with the slowest
 * method (busy, pure 2us setup) plus a mixed tail must complete every
 * accepted request with a response byte-identical to the rpc_execute
 * shadow oracle — queueing pressure may delay answers but must never
 * corrupt them or cross-wire request ids.
 */
TEST(RpcDispatch, SaturatedWorkerBankKeepsConformanceDigests)
{
    sim::EventQueue eq;
    RpcServiceConfig cfg;
    cfg.workers = 2; // tiny bank: most of the burst sits queued
    RpcDispatcher disp(eq, cfg);
    Rng rng(0x5a7);

    struct Expect
    {
        uint8_t method;
        std::vector<uint8_t> response;
    };
    std::map<uint64_t, Expect> expect;
    std::map<uint64_t, rpc::Frame> got;

    // 64 requests at once: a 32x overload of the bank. The front
    // half is all busy (saturation), the tail is a random method mix
    // racing the drained backlog.
    for (uint64_t id = 0; id < 64; ++id) {
        rpc::Frame f;
        f.method = id < 32 ? kRpcBusy
                           : uint8_t(rng.uniform(kRpcMethodCount));
        f.request_id = id;
        f.payload = f.method == kRpcDefrag
                        ? build_defrag_payload(rng, 1 + uint32_t(
                                                        rng.uniform(400)))
                        : random_payload(rng,
                                         size_t(rng.range(1, 300)));
        expect[id] = {f.method,
                      rpc_execute(f.method, id, f.payload.data(),
                                  f.payload.size())};
        ASSERT_TRUE(disp.dispatch(std::move(f), [&, id](rpc::Frame&& r) {
            EXPECT_EQ(got.count(id), 0u) << "duplicate completion";
            got[id] = std::move(r);
        }));
    }
    eq.run();

    ASSERT_EQ(got.size(), 64u) << "saturation swallowed completions";
    for (const auto& [id, e] : expect) {
        ASSERT_TRUE(got.count(id)) << "request " << id << " lost";
        EXPECT_EQ(got[id].method, e.method) << "request " << id;
        EXPECT_EQ(got[id].request_id, id);
        EXPECT_EQ(got[id].payload, e.response)
            << "request " << id << " corrupted under overload";
    }
    EXPECT_TRUE(disp.idle());
    EXPECT_EQ(disp.stats().dispatched, 64u);
}

TEST(RpcDispatch, CompletionOrderIsDeterministic)
{
    auto run = [] {
        sim::EventQueue eq;
        RpcServiceConfig cfg;
        cfg.workers = 2;
        RpcDispatcher disp(eq, cfg);
        Rng rng(7);
        std::vector<uint64_t> order;
        for (int i = 0; i < 12; ++i) {
            rpc::Frame f;
            f.method = uint8_t(rng.uniform(kRpcMethodCount));
            f.request_id = uint64_t(i);
            f.payload = random_payload(rng, size_t(rng.range(1, 400)));
            disp.dispatch(std::move(f), [&order](rpc::Frame&& r) {
                order.push_back(r.request_id);
            });
        }
        eq.run();
        return order;
    };
    std::vector<uint64_t> a = run(), b = run();
    ASSERT_EQ(a.size(), 12u);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace fld::apps
