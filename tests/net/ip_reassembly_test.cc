/** @file IP fragmentation/reassembly tests. */
#include "net/ip_reassembly.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/rng.h"

namespace fld::net {
namespace {

const MacAddr kMacA = {0x02, 0, 0, 0, 0, 1};
const MacAddr kMacB = {0x02, 0, 0, 0, 0, 2};

Packet make_udp(size_t payload_len, uint16_t ip_id)
{
    std::vector<uint8_t> payload(payload_len);
    std::iota(payload.begin(), payload.end(), uint8_t(ip_id));
    return PacketBuilder()
        .eth(kMacA, kMacB)
        .ipv4(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2),
              kIpProtoUdp, ip_id)
        .udp(4000, 5000)
        .payload(payload)
        .build();
}

TEST(IpFragment, SmallPacketPassesThrough)
{
    Packet pkt = make_udp(100, 1);
    auto frags = ip_fragment(pkt, 1500);
    ASSERT_EQ(frags.size(), 1u);
    EXPECT_EQ(frags[0].data, pkt.data);
}

TEST(IpFragment, SplitsRespectMtuAndAlignment)
{
    Packet pkt = make_udp(3000, 2);
    auto frags = ip_fragment(pkt, 1450);
    ASSERT_GE(frags.size(), 2u);
    for (size_t i = 0; i < frags.size(); ++i) {
        ParsedPacket pp = parse(frags[i]);
        ASSERT_TRUE(pp.has_ipv4);
        EXPECT_LE(pp.total_len, 1450);
        EXPECT_EQ(pp.more_fragments, i + 1 < frags.size());
        if (i + 1 < frags.size()) {
            // All but the last carry 8-byte-aligned payloads.
            EXPECT_EQ((pp.total_len - kIpv4HeaderLen) % 8, 0u);
        }
    }
}

TEST(IpReassembler, InOrderReassembly)
{
    Packet pkt = make_udp(4000, 3);
    auto frags = ip_fragment(pkt, 1500);
    ASSERT_GT(frags.size(), 1u);

    IpReassembler reasm;
    std::optional<Packet> done;
    for (auto& f : frags) {
        auto r = reasm.push(f);
        if (r)
            done = r;
    }
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, pkt.data) << "byte-exact reassembly expected";
    EXPECT_EQ(reasm.stats().packets_out, 1u);
}

TEST(IpReassembler, OutOfOrderReassembly)
{
    Packet pkt = make_udp(5000, 4);
    auto frags = ip_fragment(pkt, 1000);
    std::reverse(frags.begin(), frags.end());

    IpReassembler reasm;
    std::optional<Packet> done;
    for (auto& f : frags) {
        auto r = reasm.push(f);
        if (r)
            done = r;
    }
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, pkt.data);
}

TEST(IpReassembler, RandomOrderManyDatagramsInterleaved)
{
    fld::Rng rng(99);
    std::vector<Packet> originals;
    std::vector<Packet> all_frags;
    for (uint16_t id = 10; id < 20; ++id) {
        Packet pkt = make_udp(2000 + id * 137 % 3000, id);
        originals.push_back(pkt);
        for (auto& f : ip_fragment(pkt, 1100))
            all_frags.push_back(std::move(f));
    }
    // Shuffle fragments of all datagrams together.
    for (size_t i = all_frags.size(); i > 1; --i)
        std::swap(all_frags[i - 1], all_frags[rng.uniform(i)]);

    IpReassembler reasm;
    std::vector<Packet> out;
    for (auto& f : all_frags) {
        auto r = reasm.push(f);
        if (r)
            out.push_back(std::move(*r));
    }
    ASSERT_EQ(out.size(), originals.size());
    // Match reassembled datagrams to originals by IP id.
    for (const auto& o : originals) {
        auto ip_id = [](const Packet& p) {
            return Ipv4Header::decode(p.bytes() + parse(p).l3_offset).id;
        };
        uint16_t id = ip_id(o);
        auto it = std::find_if(out.begin(), out.end(), [&](const Packet& p) {
            return ip_id(p) == id;
        });
        ASSERT_NE(it, out.end());
        EXPECT_EQ(it->data, o.data);
    }
}

TEST(IpReassembler, NonFragmentPassesThrough)
{
    IpReassembler reasm;
    Packet pkt = make_udp(200, 7);
    auto r = reasm.push(pkt);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->data, pkt.data);
    EXPECT_EQ(reasm.stats().fragments_in, 0u);
}

TEST(IpReassembler, DuplicateFragmentCountsOverlap)
{
    Packet pkt = make_udp(3000, 8);
    auto frags = ip_fragment(pkt, 1500);
    IpReassembler reasm;
    reasm.push(frags[0]);
    reasm.push(frags[0]); // duplicate
    EXPECT_GT(reasm.stats().overlaps, 0u);
    std::optional<Packet> done;
    for (size_t i = 1; i < frags.size(); ++i) {
        auto r = reasm.push(frags[i]);
        if (r)
            done = r;
    }
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, pkt.data);
}

TEST(IpReassembler, OverlapCountsPerFragmentNotPerByte)
{
    // Regression: the overlap counter used to tick once per
    // overlapping BYTE, so one duplicated 1.5 KB fragment inflated
    // the stat by ~1500. A duplicate is one overlap event.
    Packet pkt = make_udp(3000, 21);
    auto frags = ip_fragment(pkt, 1500);
    IpReassembler reasm;
    reasm.push(frags[0]);
    reasm.push(frags[0]);
    EXPECT_EQ(reasm.stats().overlaps, 1u);
    reasm.push(frags[0]);
    EXPECT_EQ(reasm.stats().overlaps, 2u);
}

TEST(IpReassembler, PartiallyOverlappingFragmentsFirstWriterWins)
{
    // Fragment the same datagram at two different MTUs and feed both
    // sets: the ranges partially overlap with different boundaries.
    // Every byte is written first by set A, so the rebuilt datagram
    // must be byte-exact, and each set-B fragment that intersects a
    // set-A range counts exactly one overlap.
    Packet pkt = make_udp(4000, 22);
    auto a = ip_fragment(pkt, 1500);
    auto b = ip_fragment(pkt, 900);
    ASSERT_GT(b.size(), a.size());

    IpReassembler reasm;
    std::optional<Packet> done;
    for (auto& f : a)
        if (auto r = reasm.push(f))
            done = r;
    ASSERT_TRUE(done.has_value()) << "set A alone completes";
    EXPECT_EQ(done->data, pkt.data);
    EXPECT_EQ(reasm.stats().overlaps, 0u);

    // Replay: set A first (half of it), then all of set B on top.
    IpReassembler r2;
    size_t half = a.size() / 2;
    size_t covered = 0; // bytes covered by the pushed set-A prefix
    for (size_t i = 0; i < half; ++i) {
        r2.push(a[i]);
        covered += parse(a[i]).total_len - kIpv4HeaderLen;
    }
    uint64_t expect_overlaps = 0;
    std::optional<Packet> done2;
    for (auto& f : b) {
        ParsedPacket pp = parse(f);
        if (size_t(pp.frag_offset) * 8 < covered)
            ++expect_overlaps;
        if (auto r = r2.push(f))
            done2 = r;
    }
    ASSERT_TRUE(done2.has_value());
    EXPECT_EQ(done2->data, pkt.data)
        << "overlapped bytes must keep the first writer's data";
    EXPECT_EQ(r2.stats().overlaps, expect_overlaps);
}

TEST(IpReassembler, CorruptedOverlapDoesNotClobberFirstWriter)
{
    // A duplicate with damaged payload bytes must not corrupt the
    // already-received data (first writer wins is a security property
    // of reassemblers, not just bookkeeping).
    Packet pkt = make_udp(3000, 23);
    auto frags = ip_fragment(pkt, 1500);
    IpReassembler reasm;
    reasm.push(frags[0]);

    Packet evil = frags[0];
    for (size_t i = evil.size() - 64; i < evil.size(); ++i)
        evil.bytes()[i] ^= 0xff;
    reasm.push(evil);
    EXPECT_EQ(reasm.stats().overlaps, 1u);

    std::optional<Packet> done;
    for (size_t i = 1; i < frags.size(); ++i)
        if (auto r = reasm.push(frags[i]))
            done = r;
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, pkt.data);
}

TEST(IpReassembler, ContextLimitEvictsOldest)
{
    IpReassembler reasm(4);
    // Open 6 half-finished contexts.
    for (uint16_t id = 0; id < 6; ++id) {
        Packet pkt = make_udp(3000, uint16_t(100 + id));
        auto frags = ip_fragment(pkt, 1500);
        reasm.push(frags[0]); // first fragment only
    }
    EXPECT_LE(reasm.stats().contexts_active, 4u);
    EXPECT_GE(reasm.stats().timeouts, 2u);
}

TEST(IpReassembler, ExpireDropsStaleContexts)
{
    IpReassembler reasm;
    reasm.tick(0);
    Packet pkt = make_udp(3000, 42);
    auto frags = ip_fragment(pkt, 1500);
    reasm.push(frags[0]);
    reasm.expire(1000, 500);
    EXPECT_EQ(reasm.stats().contexts_active, 0u);
    EXPECT_EQ(reasm.stats().timeouts, 1u);

    // Late fragments then never complete: push remaining, no output.
    std::optional<Packet> done;
    for (size_t i = 1; i < frags.size(); ++i) {
        auto r = reasm.push(frags[i]);
        if (r)
            done = r;
    }
    EXPECT_FALSE(done.has_value());
}

TEST(IpReassembler, ExpireAgeBoundaryIsExclusive)
{
    // expire() drops contexts strictly OLDER than max_age: a context
    // exactly max_age old must survive, one tick older must not.
    IpReassembler reasm;
    reasm.tick(100);
    Packet pkt = make_udp(3000, 43);
    auto frags = ip_fragment(pkt, 1500);
    reasm.push(frags[0]);

    reasm.expire(100 + 500, 500); // age == max_age: keep
    EXPECT_EQ(reasm.stats().contexts_active, 1u);
    EXPECT_EQ(reasm.stats().timeouts, 0u);

    reasm.expire(100 + 501, 500); // age > max_age: drop
    EXPECT_EQ(reasm.stats().contexts_active, 0u);
    EXPECT_EQ(reasm.stats().timeouts, 1u);
}

TEST(IpReassembler, ExpireOnlyDropsStaleContextsAmongMany)
{
    IpReassembler reasm;
    Packet old_pkt = make_udp(3000, 44);
    Packet young_pkt = make_udp(3000, 45);
    auto old_frags = ip_fragment(old_pkt, 1500);
    auto young_frags = ip_fragment(young_pkt, 1500);

    reasm.tick(0);
    reasm.push(old_frags[0]);
    reasm.tick(900);
    reasm.push(young_frags[0]);

    reasm.expire(1000, 500); // old is 1000 ticks old, young only 100
    EXPECT_EQ(reasm.stats().contexts_active, 1u);
    EXPECT_EQ(reasm.stats().timeouts, 1u);

    // The surviving young context still completes byte-exact.
    std::optional<Packet> done;
    for (size_t i = 1; i < young_frags.size(); ++i)
        if (auto r = reasm.push(young_frags[i]))
            done = r;
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, young_pkt.data);

    // The evicted datagram's tail fragments alone cannot complete.
    std::optional<Packet> ghost;
    for (size_t i = 1; i < old_frags.size(); ++i)
        if (auto r = reasm.push(old_frags[i]))
            ghost = r;
    EXPECT_FALSE(ghost.has_value());
}

TEST(IpReassembler, EvictedDatagramRecoversOnFullRetransmit)
{
    // After a stale eviction, retransmitting the whole datagram must
    // reassemble cleanly — eviction may not poison the (src,dst,id)
    // key for future use.
    IpReassembler reasm;
    reasm.tick(0);
    Packet pkt = make_udp(4000, 46);
    auto frags = ip_fragment(pkt, 1500);
    for (size_t i = 0; i + 1 < frags.size(); ++i)
        reasm.push(frags[i]); // all but the last
    reasm.expire(1000, 10);
    ASSERT_EQ(reasm.stats().contexts_active, 0u);

    std::optional<Packet> done;
    for (auto& f : frags)
        if (auto r = reasm.push(f))
            done = r;
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->data, pkt.data);
    EXPECT_EQ(reasm.stats().overlaps, 0u)
        << "a clean retransmit into a fresh context overlaps nothing";
}

} // namespace
} // namespace fld::net
