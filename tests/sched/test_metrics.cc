/**
 * @file
 * Serving-metric computation tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sched/metrics.hh"

namespace duplex
{
namespace
{

Request
makeFinished(PicoSec arrival, std::vector<PicoSec> token_times)
{
    Request r;
    r.arrival = arrival;
    r.firstToken = token_times.front();
    r.finished = token_times.back();
    r.generated = static_cast<std::int64_t>(token_times.size());
    r.outputLen = r.generated;
    r.tokenTimes = std::move(token_times);
    return r;
}

/** Stream @p finished through an exact accumulator, in order. */
ServingMetrics
ingestAll(const std::vector<Request> &finished,
          std::size_t skip_requests = 0)
{
    MetricsAccumulator acc(skip_requests);
    for (const Request &r : finished)
        acc.ingest(r);
    return acc.takeMetrics();
}

TEST(Metrics, T2ftAndE2e)
{
    std::vector<Request> reqs{
        makeFinished(0, {2 * kPsPerMs, 3 * kPsPerMs, 4 * kPsPerMs}),
    };
    const ServingMetrics m = ingestAll(reqs);
    EXPECT_DOUBLE_EQ(m.t2ftMs.median(), 2.0);
    EXPECT_DOUBLE_EQ(m.e2eMs.median(), 4.0);
}

TEST(Metrics, TbtFromTokenGaps)
{
    std::vector<Request> reqs{
        makeFinished(0, {kPsPerMs, 3 * kPsPerMs, 6 * kPsPerMs}),
    };
    const ServingMetrics m = ingestAll(reqs);
    // Gaps: 2 ms and 3 ms.
    EXPECT_EQ(m.tbtMs.count(), 2u);
    EXPECT_DOUBLE_EQ(m.tbtMs.min(), 2.0);
    EXPECT_DOUBLE_EQ(m.tbtMs.max(), 3.0);
}

TEST(Metrics, WarmupSkipped)
{
    std::vector<Request> reqs{
        makeFinished(0, {100 * kPsPerMs}), // warm-up outlier
        makeFinished(0, {2 * kPsPerMs}),
    };
    const ServingMetrics m = ingestAll(reqs, 1);
    EXPECT_EQ(m.t2ftMs.count(), 1u);
    EXPECT_DOUBLE_EQ(m.t2ftMs.median(), 2.0);
}

TEST(Metrics, ThroughputFromTokensAndElapsed)
{
    ServingMetrics m;
    m.totalTokens = 5000;
    m.elapsed = kPsPerSec; // one second
    EXPECT_DOUBLE_EQ(m.throughputTokensPerSec(), 5000.0);
}

TEST(Metrics, DecodingOnlyRatio)
{
    ServingMetrics m;
    m.decodingOnlyStages = 98;
    m.mixedStages = 2;
    EXPECT_NEAR(m.decodingOnlyRatio(), 0.98, 1e-12);
}

TEST(Metrics, EmptyIsSafe)
{
    const ServingMetrics m = ingestAll({});
    EXPECT_EQ(m.tbtMs.count(), 0u);
    EXPECT_DOUBLE_EQ(m.throughputTokensPerSec(), 0.0);
    EXPECT_DOUBLE_EQ(m.decodingOnlyRatio(), 0.0);
}

TEST(Metrics, SingleTokenRequestHasNoTbt)
{
    std::vector<Request> reqs{makeFinished(0, {kPsPerMs})};
    const ServingMetrics m = ingestAll(reqs);
    EXPECT_EQ(m.tbtMs.count(), 0u);
    EXPECT_EQ(m.t2ftMs.count(), 1u);
}

TEST(Metrics, SloAttainmentFractions)
{
    std::vector<Request> reqs{
        makeFinished(0, {kPsPerMs, 3 * kPsPerMs}),      // T2FT 1 ms
        makeFinished(0, {10 * kPsPerMs, 12 * kPsPerMs}), // T2FT 10 ms
    };
    const ServingMetrics m = ingestAll(reqs);
    // TBT gaps are 2 ms each; T2FT samples are 1 and 10 ms.
    EXPECT_DOUBLE_EQ(m.t2ftAttainment({5.0, 1.0}), 0.5);
    EXPECT_DOUBLE_EQ(m.t2ftAttainment({10.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(m.tbtAttainment({1.0, 2.0}), 1.0);
    EXPECT_DOUBLE_EQ(m.tbtAttainment({1.0, 1.9}), 0.0);
}

TEST(Metrics, SloAttainmentVacuouslyMetWhenEmpty)
{
    const ServingMetrics m = ingestAll({});
    EXPECT_DOUBLE_EQ(m.t2ftAttainment({}), 1.0);
    EXPECT_DOUBLE_EQ(m.tbtAttainment({}), 1.0);
}

TEST(MetricsAccumulatorTest, WarmupSkipDropsCompletionOrderPrefix)
{
    // Skipping the first k ingested requests must equal ingesting
    // only the rest, bit-for-bit (float-summation order included).
    std::vector<Request> reqs{
        makeFinished(0, {2 * kPsPerMs, 5 * kPsPerMs, 6 * kPsPerMs}),
        makeFinished(kPsPerMs, {3 * kPsPerMs, 9 * kPsPerMs}),
        makeFinished(0, {7 * kPsPerMs}),
    };
    for (std::size_t skip : {0u, 1u, 2u, 3u, 7u}) {
        const std::vector<Request> rest(
            reqs.begin() + static_cast<std::ptrdiff_t>(
                               std::min(skip, reqs.size())),
            reqs.end());
        const ServingMetrics want = ingestAll(rest);
        MetricsAccumulator acc(skip);
        for (const Request &r : reqs)
            acc.ingest(r);
        EXPECT_EQ(acc.ingested(), reqs.size());
        ServingMetrics streamed = acc.takeMetrics();
        EXPECT_EQ(streamed.t2ftMs.count(), want.t2ftMs.count());
        EXPECT_EQ(streamed.t2ftMs.sum(), want.t2ftMs.sum());
        EXPECT_EQ(streamed.e2eMs.sum(), want.e2eMs.sum());
        EXPECT_EQ(streamed.tbtMs.count(), want.tbtMs.count());
        EXPECT_EQ(streamed.tbtMs.percentile(90),
                  want.tbtMs.percentile(90));
    }
}

TEST(MetricsAccumulatorTest, WorstGapPerRequest)
{
    MetricsAccumulator acc(0);
    EXPECT_FALSE(acc.bounded());
    // Gaps 3 ms and 1 ms: worst is 3.
    acc.ingest(makeFinished(
        0, {kPsPerMs, 4 * kPsPerMs, 5 * kPsPerMs}));
    // Single-token request: no gap sample.
    acc.ingest(makeFinished(0, {2 * kPsPerMs}));
    EXPECT_EQ(acc.ingested(), 2u);
    EXPECT_EQ(acc.worstGapMs().count(), 1u);
    EXPECT_DOUBLE_EQ(acc.worstGapMs().max(), 3.0);
    EXPECT_EQ(acc.takeBounded(), nullptr); // exact: no histograms
}

TEST(MetricsAccumulatorTest, BoundedModeUsesHistograms)
{
    MetricsAccumulator acc(1, BoundedSpec{100.0, 100});
    acc.ingest(makeFinished(0, {50 * kPsPerMs})); // skipped warm-up
    acc.ingest(makeFinished(0, {2 * kPsPerMs, 4 * kPsPerMs}));
    ASSERT_TRUE(acc.bounded());
    // Exact-mode stats stay empty in bounded mode.
    const ServingMetrics m = acc.takeMetrics();
    EXPECT_EQ(m.t2ftMs.count(), 0u);
    const std::shared_ptr<const BoundedLatencyMetrics> bounded =
        acc.takeBounded();
    ASSERT_NE(bounded, nullptr);
    const BoundedLatencyMetrics &h = *bounded;
    EXPECT_EQ(h.t2ftMs.count(), 1u); // warm-up excluded
    EXPECT_DOUBLE_EQ(h.t2ftMs.max(), 2.0);
    EXPECT_EQ(h.tbtMs.count(), 1u);
    EXPECT_EQ(h.worstGapMs.count(), 1u);
    EXPECT_DOUBLE_EQ(h.worstGapMs.max(), 2.0);
}

TEST(WarmupWindowTest, ThroughputOverPostWarmupWindow)
{
    WarmupWindow w(2);
    w.onStageCompleted(10 * kPsPerMs, 100); // ramp-up
    w.onStageCompleted(20 * kPsPerMs, 250); // window opens here
    w.onStageCompleted(30 * kPsPerMs, 400);
    EXPECT_EQ(w.stages(), 3);

    ServingMetrics m;
    w.finalize(m, 40 * kPsPerMs, 500);
    EXPECT_EQ(m.totalTokens, 250); // 500 - 250
    EXPECT_EQ(m.elapsed, 20 * kPsPerMs);
}

TEST(WarmupWindowTest, ShortRunFallsBackToWholeRun)
{
    WarmupWindow w(40);
    w.onStageCompleted(10 * kPsPerMs, 100);
    w.onStageCompleted(20 * kPsPerMs, 200);

    ServingMetrics m;
    w.finalize(m, 20 * kPsPerMs, 200);
    EXPECT_EQ(m.totalTokens, 200);
    EXPECT_EQ(m.elapsed, 20 * kPsPerMs);
}

TEST(WarmupWindowTest, RunEndingExactlyAtWarmupUsesWholeRun)
{
    // The window opens at stage N but only closes a measurement
    // when at least one post-warm-up stage ran.
    WarmupWindow w(2);
    w.onStageCompleted(10 * kPsPerMs, 100);
    w.onStageCompleted(20 * kPsPerMs, 250);

    ServingMetrics m;
    w.finalize(m, 20 * kPsPerMs, 250);
    EXPECT_EQ(m.totalTokens, 250);
    EXPECT_EQ(m.elapsed, 20 * kPsPerMs);
}

TEST(LatencySummaryTest, PullsTheStandardPercentiles)
{
    ServingMetrics m;
    for (int i = 1; i <= 100; ++i)
        m.tbtMs.add(static_cast<double>(i));
    m.t2ftMs.add(7.0);
    m.e2eMs.add(11.0);
    const LatencySummary s = summarizeLatency(m);
    EXPECT_DOUBLE_EQ(s.tbtP50, m.tbtMs.percentile(50));
    EXPECT_DOUBLE_EQ(s.tbtP90, m.tbtMs.percentile(90));
    EXPECT_DOUBLE_EQ(s.tbtP99, m.tbtMs.percentile(99));
    EXPECT_DOUBLE_EQ(s.t2ftP50, 7.0);
    EXPECT_DOUBLE_EQ(s.e2eP50, 11.0);
}

TEST(LatencySummaryTest, DefaultWarmupRequestsRule)
{
    EXPECT_EQ(defaultWarmupRequests(64), 32);
    EXPECT_EQ(defaultWarmupRequests(1), 0);
}

} // namespace
} // namespace duplex
