#include "accel/iot_auth.h"

namespace fld::accel {

void
IotAuthAccelerator::process(core::StreamPacket&& pkt)
{
    net::Packet frame(std::move(pkt.data));

    // Packet layout: Eth/IPv4/UDP carrying a CoAP message whose
    // payload is a compact-serialized JWT.
    net::ParsedPacket pp = net::parse(frame);
    if (!pp.has_udp || pp.payload_len == 0) {
        auth_stats_.malformed++;
        stats_.dropped_invalid++;
        return;
    }
    auto coap = net::CoapMessage::decode(
        frame.bytes() + pp.payload_offset, pp.payload_len);
    if (!coap || coap->payload.empty()) {
        auth_stats_.malformed++;
        stats_.dropped_invalid++;
        return;
    }

    uint32_t tenant = pkt.meta.context_id;
    if (tenant >= keys_.size() || keys_[tenant].empty()) {
        auth_stats_.unknown_tenant++;
        stats_.dropped_invalid++;
        return;
    }

    std::string token(coap->payload.begin(), coap->payload.end());
    auto result = net::jwt_verify_hs256(token, keys_[tenant]);
    if (!result.valid) {
        auth_stats_.invalid_signature++;
        stats_.dropped_invalid++;
        return; // DDoS protection: invalid tokens never reach the host
    }
    auth_stats_.valid++;

    core::StreamPacket out;
    out.data = std::move(frame.data);
    out.meta.context_id = tenant;
    out.meta.next_table = pkt.meta.next_table;
    send(tx_queue_, std::move(out));
}

} // namespace fld::accel
