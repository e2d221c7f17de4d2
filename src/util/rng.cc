#include "util/rng.h"

#include <cmath>

#include "util/hash.h"

namespace fld {

void
Rng::reseed(uint64_t seed)
{
    // splitmix64 expands the one seed word into the xoshiro state.
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
