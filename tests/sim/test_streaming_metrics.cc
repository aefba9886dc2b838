/**
 * @file
 * Retirement-streaming property tests: every driver loop drains
 * retired requests into a MetricsAccumulator and drops them, so the
 * run's latency metrics must be bit-identical to a
 * MetricsAccumulator fed the onRequestRetired stream an observer
 * recorded, with the same warm-up skip. Pinned on closed and open
 * loops, for both the engine's batcher loop and the split system's
 * custom loop, on the multi-turn session workload (whose next turn
 * is released after the observers) with and without a KV prefix
 * cache, and on the warm-up-request exclusion edge cases. Also
 * covers the bounded histogram contract: exact counts/extremes,
 * approximate percentiles, empty SampleStats, and the same
 * retirement stream as an exact run.
 */

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/observers.hh"

namespace duplex
{
namespace
{

SimConfig
baseConfig(const std::string &system)
{
    SimConfig c;
    c.systemName = system;
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 20000;
    return c;
}

/** Multi-turn chat: follow-up turns arrive after retirement. */
SimConfig
sessionConfig(const std::string &system)
{
    SimConfig c = baseConfig(system);
    c.workloadName = "session";
    c.workload.qps = 2.0; // fresh sessions/s
    c.workload.meanInputLen = 192;
    c.workload.meanOutputLen = 48;
    c.workload.sessionTurns = 4;
    c.workload.sharedPrefixTokens = 96;
    c.workload.meanThinkSec = 0.1;
    c.numRequests = 64;
    c.maxStages = 200000;
    return c;
}

/** Bit-exact comparison of two sample accumulators. */
void
expectSameSamples(const SampleStats &a, const SampleStats &b,
                  const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what;    // same fp add order
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p))
            << what << " p" << p;
}

/** Keeps a copy of every retired request, in retirement order. */
class RetireRecorder : public SimObserver
{
  public:
    std::vector<Request> retired;
    std::vector<PicoSec> times;

    void onRequestRetired(const Request &r, PicoSec now) override
    {
        retired.push_back(r);
        times.push_back(now);
    }
};

/**
 * Run @p config with a RetireRecorder attached, check that every
 * request retired and that the run's latency metrics match a
 * MetricsAccumulator fed the recorded stream. Returns the run.
 */
SimResult
expectMetricsMatchRecordedStream(const SimConfig &config)
{
    SimulationEngine engine(config);
    RetireRecorder recorder;
    engine.addObserver(&recorder);
    const SimResult r = engine.run();

    MetricsAccumulator reference(
        static_cast<std::size_t>(config.warmupRequests));
    for (const Request &req : recorder.retired)
        reference.ingest(req);
    const ServingMetrics want = reference.takeMetrics();

    EXPECT_EQ(recorder.retired.size(),
              static_cast<std::size_t>(config.numRequests));
    expectSameSamples(r.metrics.tbtMs, want.tbtMs, "tbt");
    expectSameSamples(r.metrics.t2ftMs, want.t2ftMs, "t2ft");
    expectSameSamples(r.metrics.e2eMs, want.e2eMs, "e2e");
    EXPECT_EQ(r.boundedLatency, nullptr);
    // Each retirement is reported at its request's finish time.
    for (std::size_t i = 0; i < recorder.retired.size(); ++i)
        EXPECT_EQ(recorder.times[i], recorder.retired[i].finished);
    return r;
}

TEST(StreamingMetrics, EngineClosedLoopMatchesRecordedStream)
{
    expectMetricsMatchRecordedStream(baseConfig("gpu"));
}

TEST(StreamingMetrics, EngineOpenLoopMatchesRecordedStream)
{
    SimConfig c = baseConfig("gpu");
    c.workload.qps = 4.0;
    expectMetricsMatchRecordedStream(c);
}

TEST(StreamingMetrics, SplitClosedLoopMatchesRecordedStream)
{
    expectMetricsMatchRecordedStream(baseConfig("duplex-split"));
}

TEST(StreamingMetrics, SplitOpenLoopMatchesRecordedStream)
{
    SimConfig c = baseConfig("duplex-split");
    c.workload.qps = 4.0;
    expectMetricsMatchRecordedStream(c);
}

TEST(StreamingMetrics, ContendedSplitMatchesRecordedStream)
{
    // The contended link reorders decode admissions relative to
    // the free-copy model; retirement streaming must track it.
    SimConfig c = baseConfig("duplex-split-contended");
    c.workload.qps = 6.0;
    expectMetricsMatchRecordedStream(c);
}

TEST(StreamingMetrics, EngineSessionMatchesRecordedStream)
{
    // Follow-up turns are released by notifyRetired after the
    // observers and the accumulator have seen the retirement.
    expectMetricsMatchRecordedStream(sessionConfig("gpu"));
}

TEST(StreamingMetrics, EngineSessionPrefixCacheMatchesRecordedStream)
{
    SimConfig c = sessionConfig("gpu");
    c.prefixCache.budgetBytes = 64LL * 1024 * 1024;
    c.prefixCache.sharedPrefixTokens = c.workload.sharedPrefixTokens;
    const SimResult r = expectMetricsMatchRecordedStream(c);
    // The cache is live: warm turns skip part of their prefill.
    EXPECT_GT(r.prefixCache.hits, 0);
}

TEST(StreamingMetrics, SplitSessionMatchesRecordedStream)
{
    // The split loop releases the next turn before ingesting the
    // retired one; the accumulator must still see it unchanged.
    expectMetricsMatchRecordedStream(sessionConfig("duplex-split"));
}

TEST(StreamingMetrics, WarmupExclusionEdges)
{
    // skip == 0 (nothing excluded), skip == count (exact
    // boundary) and skip beyond the finished count (everything
    // excluded).
    for (int warmup : {0, 48, 1000}) {
        SimConfig c = baseConfig("gpu");
        c.warmupRequests = warmup;
        expectMetricsMatchRecordedStream(c);
    }
    SimConfig c = baseConfig("gpu");
    c.warmupRequests = 1000; // > every retirement
    const SimResult r = SimulationEngine(c).run();
    EXPECT_EQ(r.metrics.t2ftMs.count(), 0u);
    EXPECT_EQ(r.metrics.tbtMs.count(), 0u);
    EXPECT_GT(r.generatedTokens, 0);
}

TEST(StreamingMetrics, ObserverStreamIdenticalAcrossModes)
{
    // The retirement order is part of the observer contract: an
    // exact run and a bounded run must fire the same
    // onRequestRetired sequence and the same throughput accounting.
    class RetireLog : public SimObserver
    {
      public:
        std::vector<std::pair<int, PicoSec>> log;
        void onRequestRetired(const Request &r,
                              PicoSec now) override
        {
            log.push_back({r.id, now});
        }
    };

    for (SimConfig c : {baseConfig("gpu"), sessionConfig("gpu"),
                        sessionConfig("duplex-split")}) {
        SimulationEngine streaming(c);
        RetireLog a;
        streaming.addObserver(&a);
        const SimResult exact = streaming.run();

        c.boundedLatency = BoundedSpec{};
        SimulationEngine bounded(c);
        RetireLog b;
        bounded.addObserver(&b);
        const SimResult approx = bounded.run();

        EXPECT_EQ(a.log, b.log);
        EXPECT_EQ(a.log.size(),
                  static_cast<std::size_t>(c.numRequests));
        EXPECT_EQ(exact.metrics.elapsed, approx.metrics.elapsed);
        EXPECT_EQ(exact.metrics.totalTokens,
                  approx.metrics.totalTokens);
        EXPECT_EQ(exact.generatedTokens, approx.generatedTokens);
        EXPECT_EQ(exact.peakBatch, approx.peakBatch);
        EXPECT_EQ(exact.metrics.decodingOnlyStages,
                  approx.metrics.decodingOnlyStages);
        EXPECT_EQ(exact.metrics.mixedStages,
                  approx.metrics.mixedStages);
        EXPECT_EQ(exact.totals.time, approx.totals.time);
        EXPECT_EQ(exact.totals.totalEnergyJ(),
                  approx.totals.totalEnergyJ());
    }
}

TEST(StreamingMetrics, BoundedModeApproximatesExact)
{
    SimConfig c = baseConfig("gpu");
    const SimResult exact = SimulationEngine(c).run();

    c.boundedLatency = BoundedSpec{1000.0, 4096}; // sub-ms bins to 1 s
    const SimResult bounded = SimulationEngine(c).run();

    // Throughput accounting is exact in every mode.
    EXPECT_EQ(bounded.metrics.elapsed, exact.metrics.elapsed);
    EXPECT_EQ(bounded.metrics.totalTokens,
              exact.metrics.totalTokens);
    // Latency SampleStats stay empty; the histograms carry the
    // distribution with exact counts/extremes and bin-resolution
    // percentiles.
    EXPECT_EQ(bounded.metrics.tbtMs.count(), 0u);
    ASSERT_NE(bounded.boundedLatency, nullptr);
    const BoundedLatencyMetrics &h = *bounded.boundedLatency;
    EXPECT_EQ(h.tbtMs.count(), exact.metrics.tbtMs.count());
    EXPECT_EQ(h.t2ftMs.count(), exact.metrics.t2ftMs.count());
    EXPECT_EQ(h.e2eMs.count(), exact.metrics.e2eMs.count());
    EXPECT_EQ(h.tbtMs.min(), exact.metrics.tbtMs.min());
    EXPECT_EQ(h.tbtMs.max(), exact.metrics.tbtMs.max());
    const double bin = 1000.0 / 4096;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_NEAR(h.tbtMs.percentile(p),
                    exact.metrics.tbtMs.percentile(p), bin)
            << "p" << p;
    // Worst-gap per request: one sample per multi-token request
    // (at most the 40 non-warm-up retirements).
    EXPECT_GT(h.worstGapMs.count(), 0u);
    EXPECT_LE(h.worstGapMs.count(), 40u);
    EXPECT_GE(h.worstGapMs.min(), exact.metrics.tbtMs.min());
    EXPECT_EQ(h.worstGapMs.max(), exact.metrics.tbtMs.max());
    // Exact runs carry no histograms.
    EXPECT_EQ(exact.boundedLatency, nullptr);
}

TEST(StreamingMetrics, SplitBoundedModeWorks)
{
    SimConfig c = baseConfig("duplex-split");
    c.boundedLatency = BoundedSpec{};
    const SimResult r = SimulationEngine(c).run();
    ASSERT_NE(r.boundedLatency, nullptr);
    EXPECT_EQ(r.boundedLatency->e2eMs.count(), 40u);
    EXPECT_GT(r.boundedLatency->tbtMs.percentile(50), 0.0);
    EXPECT_EQ(r.metrics.tbtMs.count(), 0u);
}

} // namespace
} // namespace duplex
