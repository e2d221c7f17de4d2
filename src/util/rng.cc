#include "util/rng.h"

#include <cmath>

namespace fld {

namespace {
/** splitmix64: used only to expand the seed into the xoshiro state. */
uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}
} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t x = seed;
    for (auto& s : s_)
        s = splitmix64(x);
}

uint64_t
Rng::uniform(uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

uint64_t
Rng::range(uint64_t lo, uint64_t hi)
{
    return lo + uniform(hi - lo + 1);
}

double
Rng::uniform_double()
{
    return double(next() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform_double();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

} // namespace fld
