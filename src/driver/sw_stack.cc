#include "driver/sw_stack.h"

namespace fld::driver {

SoftwareReceiveStack::SoftwareReceiveStack(sim::EventQueue& eq,
                                           HostNode& host,
                                           CpuDriver& driver,
                                           SwStackConfig cfg)
    : eq_(eq), host_(host), driver_(driver), cfg_(cfg)
{
    driver_.set_rx_handler([this](uint32_t q, net::Packet&& pkt) {
        on_packet(q, std::move(pkt));
    });
}

void
SoftwareReceiveStack::on_packet(uint32_t queue, net::Packet&& pkt)
{
    // Stack processing cost on the core RSS picked (== queue's core).
    sim::TimePs cost = cfg_.per_packet_cost;
    if (!pkt.meta.l4_csum_ok)
        cost += sim::TimePs(pkt.size()) * cfg_.csum_per_byte;

    net::ParsedPacket pp = net::parse(pkt);
    bool fragment = pp.is_ip_fragment();
    if (fragment) {
        if (!cfg_.software_defrag) {
            // Stack without reassembly support: fragment is dropped.
            ++dropped_;
            return;
        }
        cost += cfg_.defrag_per_packet;
    }

    host_.run_on_core(driver_.core_of(queue), cost,
                      [this, queue, pkt = std::move(pkt),
                       fragment]() mutable {
                          if (fragment) {
                              auto done = reasm_.push(pkt);
                              if (done)
                                  account(queue, *done);
                          } else {
                              account(queue, pkt);
                          }
                      });
}

void
SoftwareReceiveStack::account(uint32_t, const net::Packet& pkt)
{
    net::ParsedPacket pp = net::parse(pkt);
    ++packets_;
    delivered_ += pp.payload_len;
    meter_.record(eq_.now(), pp.payload_len);
}

} // namespace fld::driver
