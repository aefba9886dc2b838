/**
 * @file
 * Unit tests for the deterministic RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/rng.hh"

namespace duplex
{
namespace
{

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    const int n = 200000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(13);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(100.0, 10.0);
    EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, TruncatedGaussianRespectsMinimum)
{
    Rng rng(17);
    for (int i = 0; i < 5000; ++i)
        EXPECT_GE(rng.truncatedGaussianInt(10.0, 50.0, 4), 4);
}

TEST(Rng, TruncatedGaussianMeanApprox)
{
    Rng rng(19);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(
            rng.truncatedGaussianInt(1000.0, 100.0, 1));
    // Truncation at 1 barely matters 10 sigma away.
    EXPECT_NEAR(sum / n, 1000.0, 5.0);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(23);
    const double rate = 8.0;
    const int n = 100000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.005);
}

TEST(Rng, ChooseDistinctReturnsDistinct)
{
    Rng rng(29);
    for (int trial = 0; trial < 1000; ++trial) {
        auto chosen = rng.chooseDistinct(8, 2);
        ASSERT_EQ(chosen.size(), 2u);
        EXPECT_NE(chosen[0], chosen[1]);
        for (int c : chosen) {
            EXPECT_GE(c, 0);
            EXPECT_LT(c, 8);
        }
    }
}

TEST(Rng, ChooseDistinctFullSet)
{
    Rng rng(31);
    auto chosen = rng.chooseDistinct(5, 5);
    std::sort(chosen.begin(), chosen.end());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(chosen[i], i);
}

TEST(Rng, ChooseDistinctUniformish)
{
    Rng rng(37);
    std::vector<int> counts(8, 0);
    const int trials = 40000;
    for (int t = 0; t < trials; ++t)
        for (int c : rng.chooseDistinct(8, 2))
            ++counts[c];
    // Each expert should see about trials * 2 / 8 selections.
    const double expected = trials * 2.0 / 8.0;
    for (int c : counts)
        EXPECT_NEAR(c, expected, expected * 0.05);
}

/**
 * ExactDivisor must equal `%` for the edge numerators {0, 1, d-1, d,
 * d+1, UINT64_MAX} and 10^5 seeded random ones.
 */
void
expectExactMod(std::uint64_t d, Rng &rng)
{
    const ExactDivisor div(d);
    const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, UINT64_MAX};
    for (std::uint64_t x : edges)
        ASSERT_EQ(div.mod(x), x % d) << "x=" << x << " d=" << d;
    for (int i = 0; i < 100000; ++i) {
        // Plain compare: a gtest assertion per draw would dominate.
        const std::uint64_t x = rng.next();
        if (div.mod(x) != x % d)
            FAIL() << "x=" << x << " d=" << d;
    }
}

TEST(ExactDivisor, MatchesModuloForSmallDivisors)
{
    Rng rng(43);
    for (std::uint64_t d = 1; d <= 1024; ++d)
        expectExactMod(d, rng);
}

TEST(ExactDivisor, MatchesModuloNearPowersOfTwo)
{
    Rng rng(47);
    for (int k = 0; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        expectExactMod(p, rng);
        expectExactMod(p + 1, rng);
        if (p > 1)
            expectExactMod(p - 1, rng);
    }
    expectExactMod(UINT64_MAX, rng);
}

/** Parameterized sweep: chooseDistinct(n, k) stays in bounds. */
class ChooseDistinctSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ChooseDistinctSweep, BoundsAndDistinctness)
{
    const auto [n, k] = GetParam();
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        auto chosen = rng.chooseDistinct(n, k);
        ASSERT_EQ(chosen.size(), static_cast<std::size_t>(k));
        std::set<int> unique(chosen.begin(), chosen.end());
        EXPECT_EQ(unique.size(), chosen.size());
        for (int c : chosen) {
            EXPECT_GE(c, 0);
            EXPECT_LT(c, n);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Gates, ChooseDistinctSweep,
    ::testing::Values(std::pair{8, 2}, std::pair{64, 2},
                      std::pair{8, 1}, std::pair{64, 8},
                      std::pair{2, 2}, std::pair{16, 4}));

} // namespace
} // namespace duplex
