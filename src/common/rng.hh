/**
 * @file
 * Deterministic random number generation for workload synthesis.
 *
 * The paper's evaluation (Section VI) samples request lengths from
 * Gaussian distributions, expert choices uniformly, and request
 * arrivals from a Poisson process. Everything here is seeded
 * explicitly so a simulation is reproducible bit-for-bit.
 */

#ifndef DUPLEX_COMMON_RNG_HH
#define DUPLEX_COMMON_RNG_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace duplex
{

/**
 * A fixed divisor d with its remainder precomputed: mod(x) equals
 * x % d for every 64-bit x, with no runtime division.
 * Power-of-two divisors (including 1) take a mask. Any other d uses
 * the round-up multiply-shift of Granlund and Montgomery, in the
 * branch-free form libdivide uses: with L = floor(log2 d), the
 * 65-bit multiplier 2^64 + magic = ceil(2^(65+L) / d) gives the
 * exact quotient floor(x * (2^64 + magic) / 2^(65+L)) for every
 * 64-bit x, and q = mulhi(x, magic) evaluates it without overflow
 * as (((x - q) >> 1) + q) >> L. Hot loops that draw next() % span
 * with a fixed span build one of these once; `%` stays the
 * reference (tests/common/test_rng.cc).
 */
class ExactDivisor
{
  public:
    explicit ExactDivisor(std::uint64_t d) : d_(d)
    {
        panicIf(d == 0, "ExactDivisor: divisor must be positive");
        if (std::has_single_bit(d)) {
            mask_ = d - 1;
            return;
        }
        shift_ = std::bit_width(d) - 1;
        // 2^(65+L) - 1 has the same floor quotient as 2^(65+L),
        // which d does not divide; the +1 rounds it up, and the
        // cast drops the implicit 2^64 bit.
        magic_ = static_cast<std::uint64_t>(
            (~U128{0} >> (63 - shift_)) / d + 1);
    }

    std::uint64_t mod(std::uint64_t x) const
    {
        if (magic_ == 0)
            return x & mask_;
        const auto q =
            static_cast<std::uint64_t>((U128{magic_} * x) >> 64);
        return x - ((((x - q) >> 1) + q) >> shift_) * d_;
    }

  private:
    __extension__ typedef unsigned __int128 U128;

    std::uint64_t d_;
    std::uint64_t mask_ = 0;  //!< d - 1 when d is a power of two
    std::uint64_t magic_ = 0; //!< otherwise; never 0 then
    int shift_ = 0;           //!< L = floor(log2 d)
};

/**
 * A small, fast, deterministic generator (xoshiro256**) with the
 * distribution helpers the workload layer needs. Not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Next raw 64-bit value. Inline: expert selection draws this
     * hundreds of millions of times per figure sweep.
     */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 mantissa bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi)
    {
        panicIf(lo > hi, "uniformInt: empty range");
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(next() % span);
    }

    /** Standard normal via Box-Muller (cached pair). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Positive integer from a truncated Gaussian: resampled until the
     * value is at least @p min_value. Used for sequence lengths.
     */
    std::int64_t truncatedGaussianInt(double mean, double stddev,
                                      std::int64_t min_value);

    /** Exponential inter-arrival gap for a Poisson process (seconds). */
    double exponential(double rate_per_sec);

    /**
     * Choose @p k distinct values uniformly from [0, n). Order is not
     * significant. Used for top-k expert selection (uniform gate).
     */
    std::vector<int> chooseDistinct(int n, int k);

    /**
     * Allocation-free chooseDistinct: writes @p k distinct values
     * into @p out (caller provides at least k slots). Consumes the
     * same draws as chooseDistinct, so mixing the two preserves the
     * stream.
     */
    void chooseDistinctInto(int n, int k, int *out)
    {
        panicIf(k > n || k < 0,
                "chooseDistinct: need 0 <= k <= n");
        // Floyd's algorithm: O(k) draws, no allocation of [0, n).
        int count = 0;
        for (int j = n - k; j < n; ++j) {
            const int t = static_cast<int>(uniformInt(0, j));
            bool seen = false;
            for (int i = 0; i < count; ++i) {
                if (out[i] == t) {
                    seen = true;
                    break;
                }
            }
            out[count++] = seen ? j : t;
        }
    }

  private:
    std::uint64_t state_[4];
    bool hasSpare_ = false;
    double spare_ = 0.0;

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

} // namespace duplex

#endif // DUPLEX_COMMON_RNG_HH
