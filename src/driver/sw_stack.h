/**
 * @file
 * Software receive stack model (kernel TCP/IP receive path).
 *
 * SoftwareReceiveStack is the CPU baseline of the
 * IP-defragmentation experiment (§8.2.2): when the NIC cannot
 * validate L4 checksums (fragments) the stack pays a per-byte software
 * checksum, and when software defragmentation is enabled it pays
 * reassembly costs — all on the core RSS chose, which for fragments is
 * a single core.
 *
 * The host transmit path (ARP resolution, MSS segmentation, go-back-N
 * retransmission) is driver::FastPath.
 */
#ifndef FLD_DRIVER_SW_STACK_H
#define FLD_DRIVER_SW_STACK_H

#include <cstdint>

#include "driver/cpu_driver.h"
#include "driver/host.h"
#include "net/headers.h"
#include "net/ip_reassembly.h"
#include "sim/stats.h"

namespace fld::driver {

struct SwStackConfig
{
    /** Kernel per-packet processing (softirq + TCP). Calibrated so 16
     *  cores comfortably sustain 25 Gbps of MTU packets while one
     *  core alone bottlenecks near the paper's 3.2 Gbps on the
     *  fragmented path. */
    sim::TimePs per_packet_cost = sim::nanoseconds(600);

    /** Software checksum cost per byte when the NIC offload verdict
     *  is unavailable (fragments). ~0.4 ns/B on the modeled cores. */
    sim::TimePs csum_per_byte = 550; // ps

    /** Reassembly bookkeeping per fragment. */
    sim::TimePs defrag_per_packet = sim::nanoseconds(380);

    /** Run software defragmentation (the non-offloaded baseline). */
    bool software_defrag = true;
};

/**
 * Attaches to a CpuDriver and plays the role of the kernel receive
 * path: costs CPU per packet, reassembles fragments in software when
 * configured, and meters application-level goodput (L4 payload bytes
 * of complete datagrams).
 */
class SoftwareReceiveStack
{
  public:
    SoftwareReceiveStack(sim::EventQueue& eq, HostNode& host,
                         CpuDriver& driver, SwStackConfig cfg = {});

    uint64_t delivered_payload_bytes() const { return delivered_; }
    uint64_t delivered_packets() const { return packets_; }
    uint64_t dropped_fragments() const { return dropped_; }
    const sim::RateMeter& meter() const { return meter_; }

  private:
    void on_packet(uint32_t queue, net::Packet&& pkt);
    void account(uint32_t queue, const net::Packet& pkt);

    sim::EventQueue& eq_;
    HostNode& host_;
    CpuDriver& driver_;
    SwStackConfig cfg_;
    net::IpReassembler reasm_{4096};
    uint64_t delivered_ = 0;
    uint64_t packets_ = 0;
    uint64_t dropped_ = 0;
    sim::RateMeter meter_;
};

} // namespace fld::driver

#endif // FLD_DRIVER_SW_STACK_H
