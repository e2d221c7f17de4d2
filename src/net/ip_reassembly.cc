#include "net/ip_reassembly.h"

#include <algorithm>
#include <cstring>

#include "net/checksum.h"
#include "util/bitops.h"

namespace fld::net {

std::vector<Packet>
ip_fragment(const Packet& pkt, size_t mtu)
{
    ParsedPacket pp = parse(pkt);
    if (!pp.has_ipv4 || pp.total_len <= mtu)
        return {pkt};

    const uint8_t* p = pkt.bytes();
    size_t ihl = pp.ihl;
    size_t ip_payload_len = pp.total_len - ihl;
    const uint8_t* ip_payload = p + pp.l3_offset + ihl;

    // Per-fragment payload: largest 8-byte multiple fitting the MTU.
    size_t max_payload = (mtu - ihl) & ~size_t(7);

    std::vector<Packet> out;
    size_t off = 0;
    while (off < ip_payload_len) {
        size_t chunk = std::min(max_payload, ip_payload_len - off);
        bool last = off + chunk >= ip_payload_len;

        Packet frag;
        frag.data.resize(kEthHeaderLen + ihl + chunk);
        frag.meta = pkt.meta;
        uint8_t* q = frag.bytes();
        std::memcpy(q, p, kEthHeaderLen + ihl); // clone L2+L3 headers

        Ipv4Header ih = Ipv4Header::decode(p + pp.l3_offset);
        ih.total_len = uint16_t(ihl + chunk);
        ih.more_fragments = !last || pp.more_fragments;
        ih.frag_offset = uint16_t(pp.frag_offset + off / 8);
        ih.encode(q + kEthHeaderLen, true);

        std::memcpy(q + kEthHeaderLen + ihl, ip_payload + off, chunk);
        out.push_back(std::move(frag));
        off += chunk;
    }
    return out;
}

std::optional<Packet>
IpReassembler::push(const Packet& pkt)
{
    ParsedPacket pp = parse(pkt);
    if (!pp.has_ipv4) {
        ++stats_.invalid;
        return pkt;
    }
    if (!pp.is_ip_fragment())
        return pkt;

    ++stats_.fragments_in;
    const uint8_t* p = pkt.bytes();
    size_t ihl = pp.ihl;
    size_t frag_payload = pp.total_len >= ihl ? pp.total_len - ihl : 0;
    if (pp.l3_offset + ihl + frag_payload > pkt.size()) {
        ++stats_.invalid;
        return std::nullopt;
    }

    uint16_t id = load_be16(p + pp.l3_offset + 4);
    Key key{pp.src_ip, pp.dst_ip, id, pp.proto};
    auto it = contexts_.find(key);
    if (it == contexts_.end()) {
        if (contexts_.size() >= max_contexts_)
            evict_oldest();
        Context ctx;
        ctx.created = now_;
        it = contexts_.emplace(key, std::move(ctx)).first;
    }
    Context& ctx = it->second;

    if (ctx.l2l3.empty() && pp.frag_offset == 0) {
        // Keep the first fragment's headers as the rebuild template.
        ctx.l2l3.assign(p, p + pp.l3_offset + ihl);
    }

    size_t start = size_t(pp.frag_offset) * 8;
    size_t end = start + frag_payload;
    if (end > ctx.payload.size()) {
        ctx.payload.resize(end);
        ctx.present.resize(end, false);
    }
    bool overlapped = false;
    for (size_t i = 0; i < frag_payload; ++i) {
        if (ctx.present[start + i]) {
            overlapped = true;
            continue; // first writer wins
        }
        ctx.payload[start + i] = p[pp.l3_offset + ihl + i];
        ctx.present[start + i] = true;
        ++ctx.received;
    }
    if (overlapped)
        ++stats_.overlaps; // one count per overlapping fragment

    if (!pp.more_fragments)
        ctx.total_len = end;

    stats_.contexts_active = contexts_.size();
    auto done = maybe_complete(key, ctx);
    if (done) {
        contexts_.erase(key);
        stats_.contexts_active = contexts_.size();
        ++stats_.packets_out;
    }
    return done;
}

std::optional<Packet>
IpReassembler::maybe_complete(const Key&, Context& ctx)
{
    if (ctx.total_len == 0 || ctx.received < ctx.total_len ||
        ctx.l2l3.empty()) {
        return std::nullopt;
    }
    for (size_t i = 0; i < ctx.total_len; ++i) {
        if (!ctx.present[i])
            return std::nullopt;
    }

    size_t ihl = ctx.l2l3.size() - kEthHeaderLen;
    Packet out;
    out.data.resize(ctx.l2l3.size() + ctx.total_len);
    std::memcpy(out.bytes(), ctx.l2l3.data(), ctx.l2l3.size());
    std::memcpy(out.bytes() + ctx.l2l3.size(), ctx.payload.data(),
                ctx.total_len);

    // Rewrite the IP header: no fragment bits, full length, new csum.
    Ipv4Header ih = Ipv4Header::decode(out.bytes() + kEthHeaderLen);
    ih.total_len = uint16_t(ihl + ctx.total_len);
    ih.more_fragments = false;
    ih.frag_offset = 0;
    ih.encode(out.bytes() + kEthHeaderLen, true);
    return out;
}

void
IpReassembler::evict_oldest()
{
    if (contexts_.empty())
        return;
    auto oldest = contexts_.begin();
    for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
        if (it->second.created < oldest->second.created)
            oldest = it;
    }
    contexts_.erase(oldest);
    ++stats_.timeouts;
}

void
IpReassembler::expire(uint64_t now_tick, uint64_t max_age)
{
    for (auto it = contexts_.begin(); it != contexts_.end();) {
        if (now_tick - it->second.created > max_age) {
            it = contexts_.erase(it);
            ++stats_.timeouts;
        } else {
            ++it;
        }
    }
    stats_.contexts_active = contexts_.size();
}

} // namespace fld::net
