/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every workload thread seeds its own Rng from (benchmark seed, core
 * id, kernel id) so simulations are bit-reproducible regardless of
 * event interleaving. The simulator-owned instances live in per-core
 * kernel sources (KernelSource); never share one Rng across cores,
 * seed a new one instead.
 */

#ifndef SPMCOH_SIM_RNG_HH
#define SPMCOH_SIM_RNG_HH

#include <cstdint>

namespace spmcoh
{

/** xoshiro256** by Blackman & Vigna; seeded via SplitMix64. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : s)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t s[4];
};

} // namespace spmcoh

#endif // SPMCOH_SIM_RNG_HH
