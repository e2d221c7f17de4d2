/**
 * @file
 * The library's stable hash functions, one definition each.
 *
 * Digests, transcripts and table placement must be identical on every
 * build and host (std::hash is implementation-defined), and several of
 * these sit on hot paths (cuckoo bank selection, RPC response
 * digests), so everything here is header-only and inline.
 */
#ifndef FLD_UTIL_HASH_H
#define FLD_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fld {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;

/** FNV-1a 64-bit over @p len bytes, continuing from @p h. */
inline uint64_t
fnv1a64(const void* data, size_t len, uint64_t h = kFnvBasis)
{
    const uint8_t* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline uint64_t
fnv1a64_str(std::string_view s, uint64_t h = kFnvBasis)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** FNV-1a fold of @p v's eight bytes, least significant first — the
 *  same result as fnv1a64 over @p v's little-endian encoding. */
constexpr uint64_t
fnv1a64_fold(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** The splitmix64 output finalizer (Stafford's Mix13 variant): a
 *  bijective avalanche of one 64-bit word. */
constexpr uint64_t
splitmix64_finalize(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One splitmix64 step: advance @p state by the golden-ratio
 *  increment and return the finalized new state. */
constexpr uint64_t
splitmix64(uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    return splitmix64_finalize(state);
}

} // namespace fld

#endif // FLD_UTIL_HASH_H
