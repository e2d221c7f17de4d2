/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Simulations must be reproducible run-to-run, so all stochastic
 * behaviour (packet sizes, jitter, flow selection) draws from an
 * explicitly seeded Rng instance; there is no global hidden state.
 */
#ifndef FLD_UTIL_RNG_H
#define FLD_UTIL_RNG_H

#include <cstdint>

#include "util/bitops.h"

namespace fld {

/** xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize state from a 64-bit seed via splitmix64. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit value. */
    uint64_t next()
    {
        const uint64_t result = rotl64(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl64(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    uint64_t uniform(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t range(uint64_t lo, uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform_double();

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform_double() < p; }

    /** Exponentially distributed value with the given mean. */
    double exponential(double mean);

  private:
    uint64_t s_[4];
};

} // namespace fld

#endif // FLD_UTIL_RNG_H
