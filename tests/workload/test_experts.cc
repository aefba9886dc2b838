/**
 * @file
 * Expert-selection tests: uniform gates (the paper's default) and
 * the skewed gates of Section VIII-B.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "workload/experts.hh"

namespace duplex
{
namespace
{

TEST(ExpertSelector, HistogramSumsToTokensTimesTopK)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 100);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              200);
}

TEST(ExpertSelector, NoExpertExceedsTokens)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 50);
    for (auto h : hist)
        EXPECT_LE(h, 50); // top-k experts are distinct per token
}

TEST(ExpertSelector, UniformGateBalanced)
{
    ExpertSelector sel(64, 2);
    Rng rng(7);
    const auto hist = sel.sample(rng, 64000);
    const double expected = 64000.0 * 2 / 64;
    for (auto h : hist)
        EXPECT_NEAR(static_cast<double>(h), expected,
                    expected * 0.15);
}

TEST(ExpertSelector, ZeroTokensZeroHistogram)
{
    ExpertSelector sel(8, 2);
    Rng rng(5);
    const auto hist = sel.sample(rng, 0);
    for (auto h : hist)
        EXPECT_EQ(h, 0);
}

TEST(ExpertSelector, SmallBatchLeavesColdExperts)
{
    // GLaM at batch 32: 64 selections over 64 experts leave many
    // experts unused — the effect expert co-processing exploits.
    ExpertSelector sel(64, 2);
    Rng rng(11);
    const auto hist = sel.sample(rng, 32);
    int cold = 0;
    for (auto h : hist)
        if (h == 0)
            ++cold;
    EXPECT_GT(cold, 10);
}

TEST(ExpertSelector, ZipfGateSkewed)
{
    ExpertSelector uniform(8, 2, GatePolicy::Uniform);
    ExpertSelector zipf(8, 2, GatePolicy::Zipf, 1.5);
    Rng rng_u(13);
    Rng rng_z(13);
    const auto hu = uniform.sample(rng_u, 20000);
    const auto hz = zipf.sample(rng_z, 20000);
    // The hottest Zipf expert processes far more than the uniform
    // share; the coldest far fewer.
    const auto hot = *std::max_element(hz.begin(), hz.end());
    const auto cold = *std::min_element(hz.begin(), hz.end());
    const auto uniform_hot = *std::max_element(hu.begin(), hu.end());
    EXPECT_GT(hot, uniform_hot * 1.3);
    EXPECT_LT(cold, hot / 3);
}

TEST(ExpertSelector, ZipfStillSumsCorrectly)
{
    ExpertSelector zipf(8, 2, GatePolicy::Zipf, 1.0);
    Rng rng(17);
    const auto hist = zipf.sample(rng, 500);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              1000);
    for (auto h : hist)
        EXPECT_LE(h, 500);
}

TEST(ExpertSelector, DeterministicGivenRngState)
{
    ExpertSelector sel(8, 2);
    Rng a(21);
    Rng b(21);
    EXPECT_EQ(sel.sample(a, 100), sel.sample(b, 100));
}

TEST(ExpertSelector, ZipfTopKAboveEightIsFatalAtConstruction)
{
    EXPECT_EXIT({ ExpertSelector sel(16, 9, GatePolicy::Zipf); },
                ::testing::ExitedWithCode(1),
                "topK > 8 unsupported for Zipf gate");
}

TEST(ExpertSelector, MixtralHistogramPinned)
{
    // Captured from the per-token uniformInt draw loop that the
    // division-free top-2 loop replaced: the stream is golden.
    ExpertSelector sel(8, 2);
    Rng rng(20240);
    const std::vector<std::int64_t> expected = {
        1013, 1025, 982, 1058, 1023, 1044, 1028, 1025};
    EXPECT_EQ(sel.sample(rng, 4099), expected);
    EXPECT_EQ(rng.next(), 0x4afd00a77f85e440ull);
}

/**
 * The uniform top-2 loop must consume exactly the draws of a
 * per-token chooseDistinctInto(n, 2) (Floyd's algorithm over
 * uniformInt): same histogram, same generator state afterwards.
 */
class TopTwoStreamPin
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>>
{
};

TEST_P(TopTwoStreamPin, MatchesChooseDistinctReference)
{
    const auto [nex, tokens] = GetParam();
    ExpertSelector sel(nex, 2);
    Rng rng(1000 + nex);
    Rng ref = rng;
    std::vector<std::int64_t> hist(3, -1); // stale contents reset
    sel.sampleInto(rng, tokens, hist);

    std::vector<std::int64_t> expected(nex, 0);
    int chosen[2];
    for (std::int64_t t = 0; t < tokens; ++t) {
        ref.chooseDistinctInto(nex, 2, chosen);
        ++expected[chosen[0]];
        ++expected[chosen[1]];
    }
    EXPECT_EQ(hist, expected);
    EXPECT_EQ(rng.next(), ref.next());
}

INSTANTIATE_TEST_SUITE_P(
    Spans, TopTwoStreamPin,
    ::testing::Combine(::testing::Values(2, 3, 7, 8, 9, 64, 65, 128),
                       ::testing::Values(std::int64_t{0}, 1, 16, 256,
                                         4099)));

/** Parameterized: all paper gate configurations stay consistent. */
class GateSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(GateSweep, SumsAndBounds)
{
    const auto [nex, topk] = GetParam();
    ExpertSelector sel(nex, topk);
    Rng rng(31);
    const auto hist = sel.sample(rng, 128);
    EXPECT_EQ(static_cast<int>(hist.size()), nex);
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(),
                              std::int64_t{0}),
              128 * topk);
}

INSTANTIATE_TEST_SUITE_P(Models, GateSweep,
                         ::testing::Values(std::pair{8, 2},
                                           std::pair{64, 2},
                                           std::pair{8, 1},
                                           std::pair{16, 4},
                                           std::pair{2, 2}));

} // namespace
} // namespace duplex
