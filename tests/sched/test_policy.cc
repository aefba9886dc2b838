/**
 * @file
 * Scheduling-policy tests: registry round-trips, fcfs stage shapes
 * pinned to the pre-policy batcher, the prefix-cache reclaim rule
 * under a full batch, chunked-prefill semantics, the preemption
 * accounting invariant, and the priority-class trace-CSV
 * round-trip.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "kvcache/prefix_cache.hh"
#include "sched/batcher.hh"
#include "sched/policy.hh"
#include "sim/engine.hh"
#include "sim/presets.hh"
#include "workload/trace.hh"

namespace duplex
{
namespace
{

std::vector<Request>
makeRequests(int n, std::int64_t lin, std::int64_t lout,
             PicoSec arrival_step = 0)
{
    std::vector<Request> reqs;
    for (int i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.inputLen = lin;
        r.outputLen = lout;
        r.arrival = arrival_step * i;
        reqs.push_back(r);
    }
    return reqs;
}

TEST(PolicyRegistry, RoundTripsEveryStockPolicy)
{
    const std::vector<std::string> ids =
        registeredSchedulingPolicies();
    ASSERT_GE(ids.size(), 3u);
    for (const std::string &id : ids) {
        EXPECT_TRUE(
            SchedulingPolicyRegistry::instance().contains(id));
        const auto policy = makeSchedulingPolicy(id);
        ASSERT_NE(policy, nullptr) << id;
        EXPECT_EQ(policy->name(), id);
        EXPECT_FALSE(policy->describe().empty()) << id;
        EXPECT_FALSE(SchedulingPolicyRegistry::instance()
                         .summary(id)
                         .empty())
            << id;
    }
}

TEST(PolicyRegistry, UnknownPolicyIsFatal)
{
    EXPECT_EXIT({ makeSchedulingPolicy("no-such-policy"); },
                ::testing::ExitedWithCode(1),
                "unknown policy 'no-such-policy'");
}

TEST(Policy, TtftProtectWidensPrefillCapUnderBacklog)
{
    const auto policy = makeSchedulingPolicy("ttft-protect");
    SchedSnapshot snap;
    snap.maxBatch = 8;
    snap.maxPrefillsPerStage = 2;
    snap.queuedCount = 1; // no backlog: the normal cap holds
    EXPECT_EQ(policy->prefillBudget(snap), 2);
    snap.queuedCount = 5; // backlog: cap widens to the batch
    EXPECT_EQ(policy->prefillBudget(snap), 8);
}

/** A formed stage: (numPrefill, prefillSum, numDecode, contextSum). */
using StageSig = std::array<std::int64_t, 4>;

/** A retired request: (id, firstToken, finished, retries,
 *  cachedTokens, tokens timed). */
using LifeSig = std::array<std::int64_t, 6>;

struct RunTrace
{
    std::vector<StageSig> stages;
    std::vector<LifeSig> finished;
};

/** Drive @p b to completion, one stage per 1000 ps, recording every
 *  formed stage and every retired lifecycle. */
RunTrace
traceRun(ContinuousBatcher &b)
{
    RunTrace t;
    PicoSec now = 0;
    for (int guard = 0; !b.allDone() && guard < 10000; ++guard) {
        const StageShape s = b.formStage(now);
        t.stages.push_back({s.agg.numPrefill, s.agg.prefillSum,
                            s.agg.numDecode, s.agg.contextSum});
        now += 1000;
        if (s.totalTokens() > 0)
            b.completeStage(now);
    }
    EXPECT_TRUE(b.allDone());
    for (const Request &r : b.finished())
        t.finished.push_back(
            {r.id, r.firstToken, r.finished, r.retries,
             r.cachedTokens,
             static_cast<std::int64_t>(r.tokenTimes.size())});
    return t;
}

// The FcfsMatchesPrePolicyBatcher* constants were captured from the
// batcher as it stood before the policy interface existed (arrival
// order, fixed prefill cap, reclaim-then-stop on KV): the default
// policy must reproduce that admission rule stage for stage.

TEST(Policy, FcfsMatchesPrePolicyBatcherClosedLoop)
{
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxPrefillsPerStage = 2;
    ContinuousBatcher b(cfg, makeRequests(8, 64, 5));
    const RunTrace t = traceRun(b);
    const std::vector<StageSig> stages = {
        {2, 128, 0, 0},   {1, 64, 2, 130}, {0, 0, 3, 197},
        {0, 0, 3, 200},   {0, 0, 3, 203},  {2, 128, 1, 68},
        {1, 64, 2, 130},  {0, 0, 3, 197},  {0, 0, 3, 200},
        {0, 0, 3, 203},   {2, 128, 1, 68}, {0, 0, 2, 130},
        {0, 0, 2, 132},   {0, 0, 2, 134},  {0, 0, 2, 136}};
    const std::vector<LifeSig> finished = {
        {0, 1000, 5000, 0, 0, 5},   {1, 1000, 5000, 0, 0, 5},
        {2, 2000, 6000, 0, 0, 5},   {3, 6000, 10000, 0, 0, 5},
        {4, 6000, 10000, 0, 0, 5},  {5, 7000, 11000, 0, 0, 5},
        {6, 11000, 15000, 0, 0, 5}, {7, 11000, 15000, 0, 0, 5}};
    EXPECT_EQ(t.stages, stages);
    EXPECT_EQ(t.finished, finished);
}

TEST(Policy, FcfsMatchesPrePolicyBatcherOpenLoop)
{
    BatcherConfig cfg;
    cfg.maxBatch = 3;
    cfg.maxPrefillsPerStage = 2;
    cfg.closedLoop = false;
    ContinuousBatcher b(cfg, makeRequests(8, 64, 5, 1500),
                        makeSchedulingPolicy("fcfs"));
    const RunTrace t = traceRun(b);
    const std::vector<StageSig> stages = {
        {1, 64, 0, 0},   {0, 0, 1, 65},   {1, 64, 1, 66},
        {1, 64, 2, 132}, {0, 0, 3, 199},  {1, 64, 2, 133},
        {0, 0, 3, 200},  {1, 64, 2, 134}, {1, 64, 2, 132},
        {0, 0, 3, 199},  {1, 64, 2, 133}, {0, 0, 3, 200},
        {1, 64, 2, 134}, {0, 0, 2, 132},  {0, 0, 2, 134},
        {0, 0, 1, 67},   {0, 0, 1, 68}};
    const std::vector<LifeSig> finished = {
        {0, 1000, 5000, 0, 0, 5},   {1, 3000, 7000, 0, 0, 5},
        {2, 4000, 8000, 0, 0, 5},   {3, 6000, 10000, 0, 0, 5},
        {4, 8000, 12000, 0, 0, 5},  {5, 9000, 13000, 0, 0, 5},
        {6, 11000, 15000, 0, 0, 5}, {7, 13000, 17000, 0, 0, 5}};
    EXPECT_EQ(t.stages, stages);
    EXPECT_EQ(t.finished, finished);
}

TEST(Policy, FcfsMatchesPrePolicyBatcherKvCappedPrefixCache)
{
    // Three sessions of growing prompts under a KV cap tight enough
    // that admission reclaims cache residency with a slot free.
    BatcherConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxPrefillsPerStage = 2;
    cfg.maxKvTokens = 600;
    PrefixCacheSpec spec;
    spec.budgetBytes = 400;
    spec.sharedPrefixTokens = 64;
    PrefixCachePool pool(spec, 1);
    std::vector<Request> reqs;
    for (int i = 0; i < 12; ++i) {
        Request r;
        r.id = i;
        r.sessionId = i % 3;
        r.inputLen = 96 + 16 * i;
        r.outputLen = 4;
        reqs.push_back(r);
    }
    ContinuousBatcher b(cfg, ArrivalQueue(std::move(reqs), true),
                        makeSchedulingPolicy("fcfs"), &pool);
    const RunTrace t = traceRun(b);
    const std::vector<StageSig> stages = {
        {2, 80, 0, 0},    {2, 144, 2, 210}, {0, 0, 4, 486},
        {0, 0, 4, 490},   {1, 44, 2, 278},  {2, 368, 1, 161},
        {0, 0, 3, 532},   {0, 0, 3, 535},   {1, 208, 2, 374},
        {1, 224, 1, 209}, {0, 0, 2, 435},   {0, 0, 2, 437},
        {1, 240, 1, 227}, {1, 256, 1, 241}, {0, 0, 2, 499},
        {0, 0, 2, 501},   {1, 272, 1, 259}, {0, 0, 1, 273},
        {0, 0, 1, 274},   {0, 0, 1, 275}};
    const std::vector<LifeSig> finished = {
        {0, 1000, 4000, 0, 64, 4},   {1, 1000, 4000, 0, 64, 4},
        {2, 2000, 5000, 0, 64, 4},   {3, 2000, 5000, 0, 64, 4},
        {4, 5000, 8000, 0, 116, 4},  {5, 6000, 9000, 0, 0, 4},
        {6, 6000, 9000, 0, 0, 4},    {7, 9000, 12000, 0, 0, 4},
        {8, 10000, 13000, 0, 0, 4},  {9, 13000, 16000, 0, 0, 4},
        {10, 14000, 17000, 0, 0, 4}, {11, 17000, 20000, 0, 0, 4}};
    EXPECT_EQ(t.stages, stages);
    EXPECT_EQ(t.finished, finished);
    EXPECT_EQ(pool.metrics().lookups, 12);
    EXPECT_EQ(pool.metrics().hits, 5);
    EXPECT_EQ(pool.metrics().hitTokens, 372);
    EXPECT_EQ(pool.metrics().evictions, 11);
    EXPECT_EQ(pool.residentTokens(), 276);
}

TEST(Policy, FullBatchNeverReclaimsPrefixCache)
{
    // One slot, a 1000-token shared prefix resident, and a second
    // request that could only fit with the cache reclaimed. It has
    // no slot and no policy names a victim (one class), so the
    // cache must survive until it can actually be admitted.
    for (const char *id : {"fcfs", "ttft-protect", "priority"}) {
        BatcherConfig cfg;
        cfg.maxBatch = 1;
        cfg.maxKvTokens = 1150;
        PrefixCacheSpec spec;
        spec.budgetBytes = 4096;
        spec.sharedPrefixTokens = 1000;
        PrefixCachePool pool(spec, 1);
        ContinuousBatcher b(
            cfg, ArrivalQueue(makeRequests(2, 100, 2), true),
            makeSchedulingPolicy(id), &pool);
        const RunTrace t = traceRun(b);
        EXPECT_EQ(t.finished.size(), 2u) << id;
        EXPECT_EQ(b.preemptions(), 0) << id;
        EXPECT_EQ(pool.metrics().evictions, 0) << id;
        EXPECT_EQ(pool.residentTokens(), 1000) << id;
    }
}

/**
 * A class-1 arrival at t = 1500 finds the only slot held by a
 * class-0 decode (100-token prompt, 8 outputs) while a 1000-token
 * shared prefix is resident, under priority scheduling.
 */
struct FullBatchPreemption
{
    PrefixCachePool pool;
    ContinuousBatcher batcher;
    RunTrace trace;

    FullBatchPreemption(std::int64_t max_kv_tokens,
                        std::int64_t high_input)
        : pool(cacheSpec(), 1),
          batcher(config(max_kv_tokens),
                  ArrivalQueue(requests(high_input), false),
                  makeSchedulingPolicy("priority"), &pool),
          trace(traceRun(batcher))
    {
    }

    static PrefixCacheSpec
    cacheSpec()
    {
        PrefixCacheSpec spec;
        spec.budgetBytes = 4096;
        spec.sharedPrefixTokens = 1000;
        return spec;
    }

    static BatcherConfig
    config(std::int64_t max_kv_tokens)
    {
        BatcherConfig cfg;
        cfg.maxBatch = 1;
        cfg.maxKvTokens = max_kv_tokens;
        cfg.closedLoop = false;
        return cfg;
    }

    static std::vector<Request>
    requests(std::int64_t high_input)
    {
        std::vector<Request> reqs = makeRequests(1, 100, 8);
        Request high;
        high.id = 1;
        high.inputLen = high_input;
        high.outputLen = 2;
        high.arrival = 1500;
        high.priorityClass = 1;
        reqs.push_back(high);
        return reqs;
    }
};

TEST(Policy, PriorityFullBatchPreemptsAndKeepsCache)
{
    // Preempting the decode alone leaves the 100-token candidate's
    // need under the KV headroom beside the resident prefix, so the
    // cache survives (victim ids, cache evictions and residency
    // pinned).
    const FullBatchPreemption run(1150, 100);
    const std::vector<StageSig> stages = {
        {1, 100, 0, 0}, {0, 0, 1, 101}, {1, 100, 0, 0},
        {0, 0, 1, 101}, {1, 100, 0, 0}, {0, 0, 1, 101},
        {0, 0, 1, 102}, {0, 0, 1, 103}, {0, 0, 1, 104},
        {0, 0, 1, 105}, {0, 0, 1, 106}, {0, 0, 1, 107}};
    const std::vector<LifeSig> finished = {
        {1, 3000, 4000, 0, 0, 2}, {0, 5000, 12000, 1, 0, 8}};
    EXPECT_EQ(run.trace.stages, stages);
    EXPECT_EQ(run.trace.finished, finished);
    EXPECT_EQ(run.batcher.preemptions(), 1);
    EXPECT_EQ(run.pool.metrics().evictions, 0);
    EXPECT_EQ(run.pool.residentTokens(), 1000);
}

TEST(Policy, PriorityFullBatchPreemptsThenReclaimsShortfall)
{
    // A 150-token candidate under a 1120-token cap: the victim
    // frees the slot but not enough KV, so the cache is reclaimed
    // after the preemption for what is still short.
    const FullBatchPreemption run(1120, 150);
    const std::vector<StageSig> stages = {
        {1, 100, 0, 0}, {0, 0, 1, 101}, {1, 150, 0, 0},
        {0, 0, 1, 151}, {1, 100, 0, 0}, {0, 0, 1, 101},
        {0, 0, 1, 102}, {0, 0, 1, 103}, {0, 0, 1, 104},
        {0, 0, 1, 105}, {0, 0, 1, 106}, {0, 0, 1, 107}};
    const std::vector<LifeSig> finished = {
        {1, 3000, 4000, 0, 0, 2}, {0, 5000, 12000, 1, 0, 8}};
    EXPECT_EQ(run.trace.stages, stages);
    EXPECT_EQ(run.trace.finished, finished);
    EXPECT_EQ(run.batcher.preemptions(), 1);
    EXPECT_EQ(run.pool.metrics().evictions, 1);
    EXPECT_EQ(run.pool.residentTokens(), 0);
}

TEST(Policy, ChunkedPrefillSplitsPromptAcrossStages)
{
    BatcherConfig cfg;
    cfg.maxBatch = 1;
    cfg.prefillChunkTokens = 32;
    ContinuousBatcher b(cfg, makeRequests(1, 100, 2));
    // 100-token prompt in 32-token chunks: 32, 32, 32, 4 — and the
    // first token appears only when the last chunk completes.
    const std::int64_t spans[] = {32, 32, 32, 4};
    PicoSec now = 0;
    for (std::int64_t span : spans) {
        const StageShape s = b.formStage(now);
        ASSERT_EQ(s.prefillLengths.size(), 1u);
        EXPECT_EQ(s.prefillLengths[0], span);
        EXPECT_EQ(s.agg.numDecode, 0);
        now += 1000;
        b.completeStage(now);
        EXPECT_EQ(b.totalGenerated(), span == 4 ? 1 : 0);
    }
    // Decode proceeds normally after the prompt completes.
    const StageShape s = b.formStage(now);
    EXPECT_EQ(s.prefillLengths.size(), 0u);
    EXPECT_EQ(s.agg.numDecode, 1);
    b.completeStage(now + 1000);
    EXPECT_EQ(b.finished().size(), 1u);
    EXPECT_EQ(b.finished()[0].firstToken, 4000);
    EXPECT_EQ(b.finished()[0].tokenTimes.size(), 2u);
}

TEST(Policy, ChunkedPrefillImprovesWorstTokenGap)
{
    // Long prompts under open-loop arrivals: whole-prompt prefills
    // stall running decodes, chunking bounds the stall. The worst
    // token gap must improve (the bench_policies effect, pinned
    // small here).
    SimConfig base;
    base.systemName = "gpu";
    base.model = mixtralConfig();
    base.maxBatch = 4;
    base.workload.meanInputLen = 2048;
    base.workload.meanOutputLen = 16;
    base.workload.qps = 4.0;
    base.numRequests = 24;
    base.warmupRequests = 0;
    base.maxStages = 100000;

    SimConfig chunked = base;
    chunked.prefillChunkTokens = 256;

    const SimResult whole = SimulationEngine(base).run();
    const SimResult split = SimulationEngine(chunked).run();
    ASSERT_GT(whole.metrics.tbtMs.count(), 0u);
    ASSERT_GT(split.metrics.tbtMs.count(), 0u);
    EXPECT_LT(split.metrics.tbtMs.max(),
              whole.metrics.tbtMs.max());
    // Same requests retire either way; chunking is a schedule
    // change, not an admission-control change.
    EXPECT_EQ(split.metrics.t2ftMs.count(),
              whole.metrics.t2ftMs.count());
}

TEST(Policy, PreemptionAccountingInvariantHolds)
{
    // Two class-0 decodes fill the batch; a class-1 arrival must
    // evict one (KV-aware victim selection), the victim restarts
    // from prefill, and everything still drains:
    // admissions == retirements + preemptions.
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    cfg.closedLoop = false;
    std::vector<Request> reqs = makeRequests(2, 16, 8);
    Request high;
    high.id = 2;
    high.inputLen = 16;
    high.outputLen = 8;
    high.arrival = 500;
    high.priorityClass = 1;
    reqs.push_back(high);
    ContinuousBatcher b(cfg, std::move(reqs),
                        makeSchedulingPolicy("priority"));

    PicoSec now = 0;
    int guard = 0;
    while (!b.allDone()) {
        ASSERT_LT(++guard, 1000);
        const StageShape s = b.formStage(now);
        now += 1000;
        if (s.totalTokens() > 0)
            b.completeStage(now);
    }
    EXPECT_EQ(b.preemptions(), 1);
    EXPECT_GT(b.preemptedTokens(), 0);
    ASSERT_EQ(b.finished().size(), 3u);
    EXPECT_EQ(b.admissions(),
              static_cast<std::int64_t>(b.finished().size()) +
                  b.preemptions());
    int victims_restarted = 0;
    for (const Request &r : b.finished()) {
        EXPECT_EQ(r.generated, r.outputLen);
        if (r.retries == 1) {
            ++victims_restarted;
            EXPECT_EQ(r.priorityClass, 0);
        }
    }
    EXPECT_EQ(victims_restarted, 1);
}

TEST(PolicyTrace, PriorityClassRoundTrips)
{
    std::vector<Request> original = makeRequests(3, 128, 32, 1000);
    original[1].priorityClass = 1;
    original[2].priorityClass = 2;

    std::ostringstream out;
    writeTrace(out, original);
    // The format is positional: a priority column forces the
    // session column, written as -1 placeholders here.
    EXPECT_NE(out.str().find(",session_id,priority_class"),
              std::string::npos);

    std::istringstream in(out.str());
    const std::vector<Request> parsed = parseTrace(in);
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].priorityClass,
                  original[i].priorityClass);
        EXPECT_EQ(parsed[i].sessionId, -1);
        EXPECT_EQ(parsed[i].inputLen, original[i].inputLen);
    }
}

TEST(PolicyTrace, LegacyColumnCountsStayValid)
{
    // Three- and four-column traces predate priority classes and
    // must parse with priorityClass = 0.
    std::istringstream in("0.0,512,256\n"
                          "0.5,1024,128,3\n"
                          "1.0,64,16,-1,2\n");
    const std::vector<Request> reqs = parseTrace(in);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].priorityClass, 0);
    EXPECT_EQ(reqs[0].sessionId, -1);
    EXPECT_EQ(reqs[1].priorityClass, 0);
    EXPECT_EQ(reqs[1].sessionId, 3);
    EXPECT_EQ(reqs[2].priorityClass, 2);
    EXPECT_EQ(reqs[2].sessionId, -1);
}

TEST(PolicyTrace, NegativePriorityClassIsFatal)
{
    std::istringstream in("0.0,512,256,-1,-2\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1),
                "priority_class must be >= 0");
}

TEST(PolicyTrace, TooManyColumnsIsFatal)
{
    std::istringstream in("0.0,512,256,-1,0,99\n");
    EXPECT_EXIT({ parseTrace(in); },
                ::testing::ExitedWithCode(1), "too many columns");
}

} // namespace
} // namespace duplex
