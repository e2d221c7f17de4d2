/** @file Toeplitz RSS hash tests against the Microsoft spec vectors. */
#include "net/toeplitz.h"

#include <gtest/gtest.h>

#include "net/headers.h"

namespace fld::net {
namespace {

// Microsoft RSS verification suite, IPv4-with-ports cases.
// Input tuple order: src addr, dst addr, src port, dst port.
TEST(Toeplitz, MicrosoftVector1)
{
    // dst 161.142.100.80:1766 <- src 66.9.149.187:2794
    uint32_t h = default_rss_table().ipv4(
        ipv4_addr(66, 9, 149, 187), ipv4_addr(161, 142, 100, 80), 2794, 1766);
    EXPECT_EQ(h, 0x51ccc178u);
}

TEST(Toeplitz, MicrosoftVector2)
{
    // dst 65.69.140.83:4739 <- src 199.92.111.2:14230
    uint32_t h = default_rss_table().ipv4(
        ipv4_addr(199, 92, 111, 2), ipv4_addr(65, 69, 140, 83), 14230, 4739);
    EXPECT_EQ(h, 0xc626b0eau);
}

TEST(Toeplitz, MicrosoftVector3)
{
    // dst 12.22.207.184:38024 <- src 24.19.198.95:12898
    uint32_t h = default_rss_table().ipv4(
        ipv4_addr(24, 19, 198, 95), ipv4_addr(12, 22, 207, 184), 12898, 38024);
    EXPECT_EQ(h, 0x5c2b394au);
}

TEST(Toeplitz, DifferentPortsDisperse)
{
    const ToeplitzTable& rss = default_rss_table();
    uint32_t a = rss.ipv4(0x01020304, 0x05060708, 1000, 80);
    uint32_t b = rss.ipv4(0x01020304, 0x05060708, 1001, 80);
    EXPECT_NE(a, b);
}

TEST(Toeplitz, DeterministicAcrossCalls)
{
    const ToeplitzTable& rss = default_rss_table();
    EXPECT_EQ(rss.ipv4(1, 2, 3, 4), rss.ipv4(1, 2, 3, 4));
}

TEST(Toeplitz, EmptyInputHashesToZero)
{
    EXPECT_EQ(default_rss_table().hash(nullptr, 0), 0u);
}

TEST(Toeplitz, SpreadsFlowsAcrossQueues)
{
    // 60 distinct flows into 16 queues: expect many queues occupied
    // (this is the property the defrag experiment relies on).
    const ToeplitzTable& rss = default_rss_table();
    std::array<int, 16> hits{};
    for (uint16_t flow = 0; flow < 60; ++flow) {
        uint32_t h = rss.ipv4(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2),
                              uint16_t(40000 + flow), 5201);
        hits[h % 16]++;
    }
    int occupied = 0;
    for (int c : hits)
        occupied += c > 0;
    EXPECT_GE(occupied, 12);
}

} // namespace
} // namespace fld::net
