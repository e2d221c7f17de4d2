/**
 * @file
 * Accelerator unit tests: unit-bank timing model, echo, ZUC protocol
 * correctness, IoT token validation, defrag reassembly — all via the
 * direct injection interface (no NIC in the loop).
 */
#include <gtest/gtest.h>

#include <numeric>

#include "accel/defrag_accel.h"
#include "accel/echo.h"
#include "accel/iot_auth.h"
#include "accel/zuc_accel.h"
#include "net/coap.h"
#include "net/ip_reassembly.h"
#include "net/jwt.h"
#include "pcie/fabric.h"
#include "tests/crypto/reference_zuc.h"

namespace fld::accel {
namespace {

/** Minimal FLD whose NIC side is a plain memory sink (doorbells land
 *  in memory; nothing reads the rings). Good enough for unit tests
 *  that only need the accelerator-facing interface. */
struct AccelRig
{
    sim::EventQueue eq;
    pcie::PcieFabric fabric{eq};
    pcie::MemoryEndpoint nic_stub{"nic-stub", 1 << 20};
    std::unique_ptr<core::FlexDriver> fld;
    std::vector<core::StreamPacket> tx_out; ///< what the AFU sent

    AccelRig()
    {
        pcie::PortId fld_port = fabric.add_port("fld", 50.0, 0);
        fld = std::make_unique<core::FlexDriver>(
            "fld", eq, fabric, fld_port, 0x8000'0000, 0x4000'0000);
        fabric.attach(fld_port, fld.get(), 0x8000'0000,
                      core::FlexDriver::kBarSize);
        pcie::PortId stub_port = fabric.add_port("stub", 50.0, 0);
        fabric.attach(stub_port, &nic_stub, 0x4000'0000, 1 << 20);
        fld->bind_tx_queue(0, 1, 1, false);
    }

    /** Capture AFU transmissions by reading FLD's tx ring state. */
    uint64_t fld_tx_count() const { return fld->stats().tx_packets; }
};

core::StreamPacket stream_of(std::vector<uint8_t> bytes)
{
    core::StreamPacket pkt;
    pkt.data = std::move(bytes);
    return pkt;
}

TEST(UnitModel, ServiceTimeFormula)
{
    UnitModel m;
    m.setup_time = sim::nanoseconds(100);
    m.unit_gbps = 8.0; // 1 B/ns
    EXPECT_EQ(m.service_time(1000),
              sim::nanoseconds(100) + sim::nanoseconds(1000));
    m.unit_gbps = 0;
    EXPECT_EQ(m.service_time(1000), sim::nanoseconds(100));
}

TEST(UnitModel, ZucDefaultSustainsPaperRate)
{
    // One module at ~4.76 Gbps on 512 B messages (§7).
    UnitModel m = ZucAccelerator::default_model();
    double gbps = sim::gbps_of(512, m.service_time(512 + 64));
    EXPECT_NEAR(gbps, 4.76, 0.5);
}

TEST(EchoAccel, EthEchoPreservesMetadata)
{
    AccelRig rig;
    EchoAccelerator echo(rig.eq, *rig.fld, 0, {});
    core::StreamPacket pkt = stream_of({1, 2, 3, 4});
    pkt.meta.context_id = 7;
    pkt.meta.next_table = 42;
    echo.inject(std::move(pkt));
    rig.eq.run();
    EXPECT_EQ(echo.stats().packets_in, 1u);
    EXPECT_EQ(echo.stats().packets_out, 1u);
    EXPECT_EQ(rig.fld_tx_count(), 1u);
}

TEST(EchoAccel, RdmaEchoWaitsForWholeMessage)
{
    AccelRig rig;
    EchoAccelerator echo(rig.eq, *rig.fld, 0, {});
    // Deliver last packet before the first (out-of-order units).
    core::StreamPacket last = stream_of(std::vector<uint8_t>(100, 2));
    last.meta.is_rdma = true;
    last.meta.msg_id = 9;
    last.meta.msg_offset = 1024;
    last.meta.msg_last = true;
    echo.inject(std::move(last));
    rig.eq.run();
    EXPECT_EQ(echo.stats().packets_out, 0u) << "must wait for bytes";

    core::StreamPacket first = stream_of(std::vector<uint8_t>(1024, 1));
    first.meta.is_rdma = true;
    first.meta.msg_id = 9;
    first.meta.msg_offset = 0;
    echo.inject(std::move(first));
    rig.eq.run();
    EXPECT_EQ(echo.stats().packets_out, 1u);
}

TEST(ZucAccel, ProducesCorrectCiphertext)
{
    AccelRig rig;
    ZucAccelerator zuc(rig.eq, *rig.fld, 0);

    ZucHeader hdr;
    hdr.op = ZucOp::Eea3Crypt;
    hdr.count = 0x1234;
    hdr.bearer = 5;
    hdr.direction = 1;
    for (size_t i = 0; i < hdr.key.size(); ++i)
        hdr.key[i] = uint8_t(i * 17);
    std::vector<uint8_t> plaintext(256);
    std::iota(plaintext.begin(), plaintext.end(), 0);
    hdr.length_bits = uint32_t(plaintext.size() * 8);

    core::StreamPacket req = stream_of(zuc_request(hdr, plaintext));
    req.meta.is_rdma = true;
    req.meta.msg_id = 1;
    req.meta.msg_last = true;
    zuc.inject(std::move(req));
    rig.eq.run();

    ASSERT_EQ(zuc.requests_served(), 1u);
    // Read the response payload out of FLD's tx buffer via the BAR,
    // exactly as the NIC would gather it.
    uint8_t wqe_raw[nic::kWqeStride];
    rig.fld->bar_read(core::FlexDriver::kTxRingRegion, wqe_raw,
                      nic::kWqeStride);
    nic::Wqe wqe = nic::Wqe::decode(wqe_raw);
    ASSERT_EQ(wqe.byte_count, kZucHeaderLen + plaintext.size());
    std::vector<uint8_t> resp(wqe.byte_count);
    rig.fld->bar_read(wqe.addr - 0x8000'0000, resp.data(),
                      resp.size());

    auto parsed = zuc_parse(resp);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first.status, ZucStatus::Ok);
    // Expected ciphertext from the specification-form reference, not
    // from the kernel the accelerator itself runs.
    std::vector<uint8_t> expect = plaintext;
    crypto::reference::eea3_crypt(hdr.key, hdr.count, hdr.bearer,
                                  hdr.direction, expect.data(),
                                  hdr.length_bits);
    EXPECT_EQ(parsed->second, expect);
}

TEST(ZucAccel, MacRequestReturnsMacOnly)
{
    AccelRig rig;
    ZucAccelerator zuc(rig.eq, *rig.fld, 0);

    ZucHeader hdr;
    hdr.op = ZucOp::Eia3Mac;
    hdr.count = 77;
    std::vector<uint8_t> data(128, 0x3c);
    hdr.length_bits = uint32_t(data.size() * 8);

    core::StreamPacket req = stream_of(zuc_request(hdr, data));
    req.meta.is_rdma = true;
    req.meta.msg_id = 2;
    req.meta.msg_last = true;
    zuc.inject(std::move(req));
    rig.eq.run();

    uint8_t wqe_raw[nic::kWqeStride];
    rig.fld->bar_read(core::FlexDriver::kTxRingRegion, wqe_raw,
                      nic::kWqeStride);
    nic::Wqe wqe = nic::Wqe::decode(wqe_raw);
    ASSERT_EQ(wqe.byte_count, kZucHeaderLen); // header only
    std::vector<uint8_t> resp(wqe.byte_count);
    rig.fld->bar_read(wqe.addr - 0x8000'0000, resp.data(), resp.size());
    ZucHeader out = ZucHeader::decode(resp.data());
    EXPECT_EQ(out.mac, crypto::eia3_mac(hdr.key, 77, 0, 0, data.data(),
                                        hdr.length_bits));
}

TEST(ZucAccel, MalformedRequestRejected)
{
    AccelRig rig;
    ZucAccelerator zuc(rig.eq, *rig.fld, 0);
    core::StreamPacket req = stream_of({1, 2, 3}); // < header size
    req.meta.is_rdma = true;
    req.meta.msg_id = 3;
    req.meta.msg_last = true;
    zuc.inject(std::move(req));
    rig.eq.run();
    EXPECT_EQ(zuc.stats().dropped_invalid, 1u);
    EXPECT_EQ(zuc.requests_served(), 0u);
}

net::Packet coap_jwt_frame(const std::string& key, bool valid)
{
    std::string token = net::jwt_sign_hs256(R"({"d":1})",
                                            valid ? key : key + "x");
    net::CoapMessage msg;
    msg.payload.assign(token.begin(), token.end());
    auto coap = msg.encode();
    return net::PacketBuilder()
        .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
        .ipv4(net::ipv4_addr(10, 0, 0, 2), net::ipv4_addr(10, 0, 0, 1),
              net::kIpProtoUdp)
        .udp(50000, net::kCoapPort)
        .payload(coap)
        .build();
}

TEST(IotAuth, ValidTokenForwardedInvalidDropped)
{
    AccelRig rig;
    IotAuthAccelerator auth(rig.eq, *rig.fld, 0);
    auth.set_tenant_key(3, "secret-3");

    core::StreamPacket ok = stream_of(coap_jwt_frame("secret-3",
                                                     true).data);
    ok.meta.context_id = 3;
    auth.inject(std::move(ok));
    core::StreamPacket bad = stream_of(coap_jwt_frame("secret-3",
                                                      false).data);
    bad.meta.context_id = 3;
    auth.inject(std::move(bad));
    rig.eq.run();

    EXPECT_EQ(auth.auth_stats().valid, 1u);
    EXPECT_EQ(auth.auth_stats().invalid_signature, 1u);
    EXPECT_EQ(auth.stats().packets_out, 1u);
}

TEST(IotAuth, UnknownTenantAndMalformedDropped)
{
    AccelRig rig;
    IotAuthAccelerator auth(rig.eq, *rig.fld, 0);
    auth.set_tenant_key(1, "k");

    core::StreamPacket unknown = stream_of(coap_jwt_frame("k",
                                                          true).data);
    unknown.meta.context_id = 99;
    auth.inject(std::move(unknown));

    core::StreamPacket garbage = stream_of({0xde, 0xad});
    garbage.meta.context_id = 1;
    auth.inject(std::move(garbage));
    rig.eq.run();

    EXPECT_EQ(auth.auth_stats().unknown_tenant, 1u);
    EXPECT_EQ(auth.auth_stats().malformed, 1u);
    EXPECT_EQ(auth.stats().packets_out, 0u);
}

TEST(DefragAccel, ReassemblesAndResumes)
{
    AccelRig rig;
    DefragAccelerator defrag(rig.eq, *rig.fld, 0);

    std::vector<uint8_t> payload(3000);
    std::iota(payload.begin(), payload.end(), 0);
    net::Packet datagram =
        net::PacketBuilder()
            .eth({2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2})
            .ipv4(1, 2, net::kIpProtoUdp, 55)
            .udp(7, 8)
            .payload(payload)
            .build();
    auto frags = net::ip_fragment(datagram, 1450);
    ASSERT_GE(frags.size(), 2u);

    for (auto& f : frags) {
        core::StreamPacket pkt = stream_of(std::move(f.data));
        pkt.meta.next_table = 5;
        defrag.inject(std::move(pkt));
    }
    rig.eq.run();

    EXPECT_EQ(defrag.stats().packets_out, 1u);
    EXPECT_EQ(defrag.reassembly_stats().packets_out, 1u);

    // The reassembled datagram in FLD's buffer matches the original.
    uint8_t wqe_raw[nic::kWqeStride];
    rig.fld->bar_read(core::FlexDriver::kTxRingRegion, wqe_raw,
                      nic::kWqeStride);
    nic::Wqe wqe = nic::Wqe::decode(wqe_raw);
    ASSERT_EQ(wqe.byte_count, datagram.size());
    std::vector<uint8_t> out(wqe.byte_count);
    rig.fld->bar_read(wqe.addr - 0x8000'0000, out.data(), out.size());
    EXPECT_EQ(out, datagram.data);
    EXPECT_EQ(wqe.next_table, 5u);
}

TEST(AccelBase, OverloadDropsWithoutBackpressure)
{
    AccelRig rig;
    UnitModel slow;
    slow.units = 1;
    slow.setup_time = sim::microseconds(100);
    slow.queue_depth = 4;
    EchoAccelerator echo(rig.eq, *rig.fld, 0, slow);

    for (int i = 0; i < 20; ++i)
        echo.inject(stream_of(std::vector<uint8_t>(64, uint8_t(i))));
    rig.eq.run();
    EXPECT_GT(echo.stats().dropped_overload, 0u);
    EXPECT_EQ(echo.stats().packets_in, 20u);
    EXPECT_LT(echo.stats().packets_out, 20u);
}

TEST(AccelBase, LoadBalancerUsesAllUnits)
{
    AccelRig rig;
    UnitModel m;
    m.units = 4;
    m.setup_time = sim::microseconds(1);
    EchoAccelerator echo(rig.eq, *rig.fld, 0, m);
    sim::TimePs start = rig.eq.now();
    for (int i = 0; i < 4; ++i)
        echo.inject(stream_of(std::vector<uint8_t>(64, 0)));
    rig.eq.run();
    // 4 units in parallel: all done after ~1 us, not 4 us.
    EXPECT_LT(rig.eq.now() - start, sim::microseconds(2));
    EXPECT_EQ(echo.stats().packets_out, 4u);
}

} // namespace
} // namespace fld::accel
