/**
 * @file
 * FleetDriver tests — the tentpole guarantees:
 *
 *  - Golden equivalence: a 1-instance round-robin fleet reproduces
 *    the bare SimulationEngine's SimResult bit-for-bit, closed and
 *    open loop (the fleet steps the identical DriverLoop code).
 *  - Determinism: two identical fleet runs agree sample-for-sample
 *    for every policy.
 *  - Least-loaded never admits past any instance's KV budget.
 *  - Autoscaling drains before retiring: a retired instance has
 *    zero in-flight requests, and every routed request retires.
 *  - Session affinity pins each session to one instance fleet-wide.
 *  - Multi-instance interleaving (step order, routing gate, retire
 *    sweep, stage cap) is pinned to constants.
 *  - Utilization busy time includes straggler scaling.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fleet/fleet.hh"
#include "sim/engine.hh"
#include "sim/registry.hh"

namespace duplex
{
namespace
{

SimConfig
baseSim()
{
    SimConfig c;
    c.systemName = "gpu";
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 20000;
    return c;
}

/** Bit-exact comparison of two sample accumulators. */
void
expectSameSamples(const SampleStats &a, const SampleStats &b,
                  const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what; // same fp add order
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p))
            << what << " p" << p;
}

void
expectSameSimResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    EXPECT_EQ(a.metrics.totalTokens, b.metrics.totalTokens);
    EXPECT_EQ(a.metrics.decodingOnlyStages,
              b.metrics.decodingOnlyStages);
    EXPECT_EQ(a.metrics.mixedStages, b.metrics.mixedStages);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.peakBatch, b.peakBatch);
    EXPECT_EQ(a.totals.time, b.totals.time);
    EXPECT_EQ(a.totals.totalEnergyJ(), b.totals.totalEnergyJ());
    expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");
    expectSameSamples(a.metrics.t2ftMs, b.metrics.t2ftMs, "t2ft");
    expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
}

void
expectGoldenEquivalence(const SimConfig &sim)
{
    const SimResult bare = SimulationEngine(sim).run();

    FleetConfig fc;
    fc.sim = sim;
    fc.instances = 1;
    fc.policy = "round-robin";
    const FleetResult fleet = FleetDriver(fc).run();

    ASSERT_EQ(fleet.perInstance.size(), 1u);
    expectSameSimResult(fleet.perInstance[0], bare);
    // The merged view of a 1-instance fleet is that instance.
    expectSameSamples(fleet.metrics.e2eMs, bare.metrics.e2eMs,
                      "merged e2e");
    EXPECT_EQ(fleet.generatedTokens, bare.generatedTokens);
    EXPECT_EQ(fleet.requestsRouted, sim.numRequests);
    EXPECT_EQ(fleet.requestsRetired, sim.numRequests);
}

TEST(Fleet, OneInstanceMatchesBareEngineClosedLoop)
{
    expectGoldenEquivalence(baseSim());
}

TEST(Fleet, OneInstanceMatchesBareEngineOpenLoop)
{
    SimConfig sim = baseSim();
    sim.workload.qps = 8.0;
    expectGoldenEquivalence(sim);
}

TEST(Fleet, OneInstanceMatchesBareEngineOnDuplex)
{
    SimConfig sim = baseSim();
    sim.systemName = "duplex-pe-et";
    sim.workload.qps = 6.0;
    expectGoldenEquivalence(sim);
}

TEST(Fleet, RunsAreDeterministicForEveryPolicy)
{
    for (const std::string &policy :
         registeredRoutingPolicies()) {
        SCOPED_TRACE(policy);
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.workload.qps = 12.0;
        fc.sim.workload.numSessions = 6;
        fc.sim.numRequests = 64;
        fc.instances = 4;
        fc.policy = policy;
        const FleetResult a = FleetDriver(fc).run();
        const FleetResult b = FleetDriver(fc).run();
        EXPECT_EQ(a.requestsRouted, b.requestsRouted);
        EXPECT_EQ(a.requestsRetired, b.requestsRetired);
        EXPECT_EQ(a.generatedTokens, b.generatedTokens);
        EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
        EXPECT_EQ(a.totals.time, b.totals.time);
        expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
        expectSameSamples(a.metrics.tbtMs, b.metrics.tbtMs, "tbt");
        ASSERT_EQ(a.perInstance.size(), b.perInstance.size());
        for (std::size_t i = 0; i < a.perInstance.size(); ++i)
            EXPECT_EQ(a.perInstance[i].generatedTokens,
                      b.perInstance[i].generatedTokens)
                << "instance " << i;
    }
}

/** Watches every stage of every instance for KV overcommit. */
class KvBudgetWatch : public FleetObserver
{
  public:
    explicit KvBudgetWatch(std::int64_t max_kv) : maxKv_(max_kv) {}

    void onStage(int instance, const StageObservation &obs) override
    {
        EXPECT_LE(obs.kvTokens, maxKv_)
            << "instance " << instance << " stage " << obs.index;
        ++stages_;
    }

    std::int64_t stages() const { return stages_; }

  private:
    std::int64_t maxKv_;
    std::int64_t stages_ = 0;
};

TEST(Fleet, LeastLoadedNeverExceedsAnyInstanceKvBudget)
{
    FleetConfig fc;
    fc.sim = baseSim();
    // Long sequences against the GPU KV budget: admission pressure
    // on every instance.
    fc.sim.workload.meanInputLen = 2048;
    fc.sim.workload.meanOutputLen = 512;
    fc.sim.workload.qps = 16.0;
    fc.sim.numRequests = 96;
    fc.sim.maxStages = 100000;
    fc.instances = 3;
    fc.policy = "least-loaded";

    const std::int64_t max_kv =
        makeSystem("gpu", fc.sim.model)->maxKvTokens();
    KvBudgetWatch watch(max_kv);
    FleetDriver driver(fc);
    driver.addObserver(&watch);
    const FleetResult result = driver.run();
    EXPECT_GT(watch.stages(), 0);
    EXPECT_EQ(result.requestsRouted, result.requestsRetired);
}

/** Records the route map and scale events of a fleet run. */
class RouteRecorder : public FleetObserver
{
  public:
    void onRequestRouted(int instance, const Request &request,
                         PicoSec) override
    {
        routes.push_back({instance, request.sessionId});
    }

    void onScaleEvent(const ScaleEvent &event) override
    {
        events.push_back(event);
    }

    struct Route
    {
        int instance;
        std::int64_t session;
    };
    std::vector<Route> routes;
    std::vector<ScaleEvent> events;
};

TEST(Fleet, SessionAffinityPinsSessionsFleetWide)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 12.0;
    fc.sim.workload.numSessions = 8;
    fc.sim.numRequests = 64;
    fc.instances = 4;
    fc.policy = "session-affinity";

    RouteRecorder recorder;
    FleetDriver driver(fc);
    driver.addObserver(&recorder);
    driver.run();

    std::map<std::int64_t, int> pin;
    std::set<int> used;
    for (const RouteRecorder::Route &r : recorder.routes) {
        ASSERT_GE(r.session, 0);
        const auto it = pin.find(r.session);
        if (it == pin.end())
            pin[r.session] = r.instance;
        else
            EXPECT_EQ(it->second, r.instance)
                << "session " << r.session << " moved";
        used.insert(r.instance);
    }
    EXPECT_EQ(pin.size(), 8u);
    EXPECT_GT(used.size(), 1u) << "all sessions on one instance";
}

/** Session fleet config with a per-instance prefix cache. */
FleetConfig
sessionFleet(const std::string &policy)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workloadName = "session";
    fc.sim.workload.qps = 4.0; // fresh sessions/s
    fc.sim.workload.meanInputLen = 192;
    fc.sim.workload.meanOutputLen = 48;
    fc.sim.workload.sessionTurns = 4;
    fc.sim.workload.sharedPrefixTokens = 96;
    fc.sim.workload.meanThinkSec = 0.1;
    fc.sim.numRequests = 64;
    fc.sim.maxStages = 200000;
    fc.sim.prefixCache.budgetBytes = 512ll << 20;
    fc.sim.prefixCache.evictPolicy = "lru";
    fc.sim.prefixCache.sharedPrefixTokens =
        fc.sim.workload.sharedPrefixTokens;
    fc.instances = 2;
    fc.policy = policy;
    return fc;
}

TEST(Fleet, SessionCacheRunsAreDeterministic)
{
    // The retirement-feedback channel (instance retirements fold
    // back into the shared session stream) plus the per-instance
    // pools must keep double runs bit-identical.
    const FleetConfig fc = sessionFleet("session-affinity");
    const FleetResult a = FleetDriver(fc).run();
    const FleetResult b = FleetDriver(fc).run();
    EXPECT_EQ(a.requestsRouted, b.requestsRouted);
    EXPECT_EQ(a.requestsRetired, b.requestsRetired);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.metrics.elapsed, b.metrics.elapsed);
    expectSameSamples(a.metrics.e2eMs, b.metrics.e2eMs, "e2e");
    expectSameSamples(a.metrics.t2ftMs, b.metrics.t2ftMs, "t2ft");
    EXPECT_EQ(a.prefixCache.lookups, b.prefixCache.lookups);
    EXPECT_EQ(a.prefixCache.hits, b.prefixCache.hits);
    EXPECT_EQ(a.prefixCache.hitTokens, b.prefixCache.hitTokens);
    EXPECT_EQ(a.prefixCache.evictions, b.prefixCache.evictions);
    EXPECT_GT(a.prefixCache.hits, 0);
}

TEST(Fleet, SessionAffinityBeatsLeastLoadedOnHitRate)
{
    // Each instance owns its pool: affinity keeps a session's turns
    // on the instance holding their prefix KV; least-loaded
    // scatters them across cold pools.
    const FleetResult affinity =
        FleetDriver(sessionFleet("session-affinity")).run();
    const FleetResult scattered =
        FleetDriver(sessionFleet("least-loaded")).run();
    EXPECT_GT(affinity.prefixCache.hits, 0);
    EXPECT_GE(affinity.prefixCache.hitRate(),
              scattered.prefixCache.hitRate());
    // The fleet aggregates every instance's warm-token count.
    EXPECT_GT(affinity.prefixCache.hitTokens, 0);
}

TEST(Fleet, AutoscalingDrainsBeforeRetiring)
{
    FleetConfig fc;
    fc.sim = baseSim();
    // Two diurnal periods: the ramp peak forces scale-ups, the
    // trough forces drains.
    fc.sim.workloadName = "diurnal";
    fc.sim.workload.diurnalLowQps = 0.5;
    fc.sim.workload.diurnalHighQps = 40.0;
    fc.sim.workload.diurnalPeriodSec = 16.0;
    fc.sim.workload.meanInputLen = 128;
    fc.sim.workload.meanOutputLen = 32;
    fc.sim.numRequests = 600;
    fc.sim.maxStages = 200000;
    fc.instances = 1;
    fc.policy = "least-loaded";
    fc.scaling.enabled = true;
    fc.scaling.minInstances = 1;
    fc.scaling.maxInstances = 4;
    fc.scaling.upQpsPerInstance = 6.0;
    fc.scaling.downQpsPerInstance = 2.0;
    fc.scaling.windowSec = 2.0;
    fc.scaling.cooldownSec = 3.0;

    RouteRecorder recorder;
    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&recorder);
    driver.addObserver(&util);
    const FleetResult result = driver.run();

    // The ramp actually scaled, both directions.
    EXPECT_GE(result.scaleUps, 1);
    EXPECT_GE(result.scaleDowns, 1);
    EXPECT_GT(result.peakInstances, 1);
    EXPECT_EQ(result.scaleUps,
              static_cast<int>(result.perInstance.size()) -
                  fc.instances);

    // Drain-before-retire: every Retire event follows a Drain of
    // the same instance, never before its drain.
    std::set<int> draining;
    for (const ScaleEvent &e : recorder.events) {
        if (e.kind == ScaleEvent::Kind::Drain) {
            draining.insert(e.instance);
        } else if (e.kind == ScaleEvent::Kind::Retire) {
            EXPECT_TRUE(draining.count(e.instance))
                << "instance " << e.instance
                << " retired without draining";
        }
    }

    // Nothing in flight was dropped: every routed request retired,
    // on whichever instance it was routed to.
    EXPECT_EQ(result.requestsRouted, fc.sim.numRequests);
    EXPECT_EQ(result.requestsRetired, result.requestsRouted);
    std::int64_t routed = 0, retired = 0;
    for (const FleetUtilization::InstanceStats &s :
         util.instances()) {
        EXPECT_EQ(s.routed, s.retired) << "instance " << s.id;
        routed += s.routed;
        retired += s.retired;
    }
    EXPECT_EQ(routed, result.requestsRouted);
    EXPECT_EQ(retired, result.requestsRetired);
}

TEST(Fleet, FleetSloAttainmentCountsEveryRetirement)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 10.0;
    fc.instances = 2;
    fc.policy = "join-shortest-queue";

    FleetSloAttainment slo;
    FleetDriver driver(fc);
    driver.addObserver(&slo);
    const FleetResult result = driver.run();

    EXPECT_EQ(slo.attainment().totalRequests(),
              result.requestsRetired);
    EXPECT_GE(slo.attainment().attainment(), 0.0);
    EXPECT_LE(slo.attainment().attainment(), 1.0);
    EXPECT_GE(slo.attainment().goodputTokensPerSec(), 0.0);
}

TEST(Fleet, MoreInstancesRetireEverything)
{
    // Sanity across fleet sizes: all requests route and retire, and
    // round-robin spreads a closed-loop stream evenly.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.numRequests = 64;
    fc.instances = 4;
    fc.policy = "round-robin";

    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&util);
    const FleetResult result = driver.run();

    EXPECT_EQ(result.requestsRouted, 64);
    EXPECT_EQ(result.requestsRetired, 64);
    ASSERT_EQ(util.instances().size(), 4u);
    for (const FleetUtilization::InstanceStats &s :
         util.instances())
        EXPECT_EQ(s.routed, 16) << "instance " << s.id;
}

TEST(Fleet, UtilizationListsInstancesThatNeverServe)
{
    // One session pinned by affinity leaves four of five instances
    // without a single route, stage or retirement; the breakdown
    // must still list every instance that ran.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 2.0;
    fc.sim.workload.numSessions = 1;
    fc.instances = 5;
    fc.policy = "session-affinity";

    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&util);
    const FleetResult result = driver.run();

    ASSERT_EQ(result.perInstance.size(), 5u);
    EXPECT_EQ(util.instances().size(), result.perInstance.size());
}

/** Sums each instance's stage spans and unscaled stage times. */
class StageSpanSum : public FleetObserver
{
  public:
    void onStage(int instance, const StageObservation &obs) override
    {
        spans[instance] += obs.end - obs.start;
        unscaled[instance] += obs.result.time;
    }

    std::map<int, PicoSec> spans;
    std::map<int, PicoSec> unscaled;
};

TEST(Fleet, UtilizationBusyTimeIncludesStragglerScaling)
{
    // A 4x straggler window on instance 0: its stages keep it busy
    // four times as long as the unscaled stage time says.
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 8.0;
    fc.instances = 2;
    fc.policy = "round-robin";
    fc.faults.events = parseFaultList("degrade@1.0:0:2.0:4");

    StageSpanSum sums;
    FleetUtilization util;
    FleetDriver driver(fc);
    driver.addObserver(&sums);
    driver.addObserver(&util);
    const FleetResult result = driver.run();
    ASSERT_EQ(result.degradeWindows, 1);

    ASSERT_EQ(util.instances().size(), 2u);
    for (const FleetUtilization::InstanceStats &s : util.instances())
        EXPECT_EQ(s.busyTime, sums.spans[s.id])
            << "instance " << s.id;
    EXPECT_GT(util.instances()[0].busyTime, sums.unscaled[0]);
    EXPECT_EQ(util.instances()[1].busyTime, sums.unscaled[1]);
}

/** What a multi-instance fleet's interleaving decides: the pins of
 *  Fleet.InterleavingIsPinned. */
struct Interleaving
{
    std::int64_t routed = 0;
    std::int64_t retired = 0;
    std::vector<std::int64_t> stages; //!< per instance, id order
    PicoSec makespan = 0;
    std::int64_t tokens = 0;
    double ttftP99 = 0.0;
    double tbtP99 = 0.0;
    std::uint64_t stageOrder = 0; //!< StageOrder digest

    struct Scale
    {
        ScaleEvent::Kind kind;
        PicoSec time;
        int instance;
    };
    std::vector<Scale> scaleEvents;
};

/** FNV-1a digest of the (instance, stage start) sequence of every
 *  stage callback: which instance steps next, in order. */
class StageOrder : public FleetObserver
{
  public:
    void onStage(int instance, const StageObservation &obs) override
    {
        for (PicoSec v : {PicoSec{instance}, obs.start})
            digest = (digest ^ static_cast<std::uint64_t>(v)) *
                     0x100000001b3ULL;
    }

    std::uint64_t digest = 0xcbf29ce484222325ULL;
};

void
expectInterleaving(const FleetConfig &fc, const Interleaving &want)
{
    FleetUtilization util;
    StageOrder order;
    FleetDriver driver(fc);
    driver.addObserver(&util);
    driver.addObserver(&order);
    const FleetResult r = driver.run();

    EXPECT_EQ(r.requestsRouted, want.routed);
    EXPECT_EQ(r.requestsRetired, want.retired);
    ASSERT_EQ(util.instances().size(), want.stages.size());
    for (std::size_t i = 0; i < want.stages.size(); ++i)
        EXPECT_EQ(util.instances()[i].stages, want.stages[i])
            << "instance " << i;
    EXPECT_EQ(r.metrics.elapsed, want.makespan);
    EXPECT_EQ(r.generatedTokens, want.tokens);
    EXPECT_DOUBLE_EQ(r.metrics.t2ftMs.percentile(99), want.ttftP99);
    EXPECT_DOUBLE_EQ(r.metrics.tbtMs.percentile(99), want.tbtP99);
    EXPECT_EQ(order.digest, want.stageOrder);
    ASSERT_EQ(r.scaleEvents.size(), want.scaleEvents.size());
    for (std::size_t i = 0; i < want.scaleEvents.size(); ++i) {
        EXPECT_EQ(r.scaleEvents[i].kind, want.scaleEvents[i].kind)
            << "event " << i;
        EXPECT_EQ(r.scaleEvents[i].time, want.scaleEvents[i].time)
            << "event " << i;
        EXPECT_EQ(r.scaleEvents[i].instance,
                  want.scaleEvents[i].instance)
            << "event " << i;
    }
}

TEST(Fleet, InterleavingIsPinned)
{
    // The 1-instance goldens and the double-run tests only compare
    // a build with itself once more than one instance runs. These
    // four fleets pin the multi-instance interleaving — which
    // instance steps next, when the busy-min gate lets an arrival
    // route, when drained instances retire, where the stage cap
    // ends the run — against constants.

    // Closed loop: the whole stream routes at the minimum clock
    // over every live instance, idle ones included.
    {
        SCOPED_TRACE("closed-loop join-shortest-queue x8");
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.numRequests = 96;
        fc.instances = 8;
        fc.policy = "join-shortest-queue";
        expectInterleaving(
            fc, {96, 96, {78, 83, 95, 95, 84, 74, 85, 91},
                 808153808150, 6116, 14.927910978630001,
                 12.209008291999975, 13145288289710670286ULL, {}});
    }
    // Autoscaled: four diurnal periods of drains and scale-ups; one
    // drained instance is still busy and retires later.
    {
        SCOPED_TRACE("autoscaled least-loaded");
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.workloadName = "diurnal";
        fc.sim.workload.diurnalLowQps = 0.5;
        fc.sim.workload.diurnalHighQps = 40.0;
        fc.sim.workload.diurnalPeriodSec = 8.0;
        fc.sim.workload.meanInputLen = 128;
        fc.sim.workload.meanOutputLen = 32;
        fc.sim.numRequests = 600;
        fc.sim.maxStages = 200000;
        fc.instances = 1;
        fc.policy = "least-loaded";
        fc.scaling.enabled = true;
        fc.scaling.minInstances = 1;
        fc.scaling.maxInstances = 4;
        fc.scaling.upQpsPerInstance = 6.0;
        fc.scaling.downQpsPerInstance = 3.0;
        fc.scaling.windowSec = 1.0;
        fc.scaling.cooldownSec = 0.5;
        using K = ScaleEvent::Kind;
        expectInterleaving(
            fc,
            {600,
             600,
             {3731, 889, 699, 561, 2254, 689, 565, 795, 595, 310,
              251},
             28077186931233,
             19154,
             16.857981677550001,
             9.0085201507000008,
             12473007035484375337ULL,
             {{K::Up, 859436331824, 1},
              {K::Up, 1493655522226, 2},
              {K::Up, 2091232432620, 3},
              {K::Drain, 6864584266451, 3},
              {K::Retire, 6864584266451, 3},
              {K::Drain, 8311768418391, 2},
              {K::Retire, 8311768418391, 2},
              {K::Drain, 8812706339759, 1},
              {K::Retire, 8888515900916, 1},
              {K::Up, 9320562355704, 4},
              {K::Up, 9864608234461, 5},
              {K::Up, 10478050902248, 6},
              {K::Drain, 15200835106072, 6},
              {K::Retire, 15200835106072, 6},
              {K::Drain, 16582545275929, 5},
              {K::Retire, 16582545275929, 5},
              {K::Up, 17327696955966, 7},
              {K::Up, 17837233609730, 8},
              {K::Drain, 23540800359887, 8},
              {K::Retire, 23540800359887, 8},
              {K::Drain, 24422107047374, 7},
              {K::Retire, 24422107047374, 7},
              {K::Up, 25700651843300, 9},
              {K::Up, 26215290340232, 10}}});
    }
    // Stage cap: instance 0 hits it with work in flight, so it
    // holds the busy-min gate (never stepping again) until the
    // others go idle and the run ends with requests unrouted.
    {
        SCOPED_TRACE("stage-capped least-loaded x4");
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.workload.qps = 24.0;
        fc.sim.numRequests = 160;
        fc.sim.warmupRequests = 0;
        fc.sim.maxStages = 400;
        fc.instances = 4;
        fc.policy = "least-loaded";
        expectInterleaving(
            fc, {75, 73, {400, 394, 394, 387}, 3260369206148, 4726,
                 18.101765281799999, 9.5314907049999995,
                 8009810285062940936ULL, {}});
    }
    // A wide open-loop fleet: 64 instances, round-robin.
    {
        SCOPED_TRACE("open-loop round-robin x64");
        FleetConfig fc;
        fc.sim = baseSim();
        fc.sim.workload.qps = 6.0 * 64;
        fc.sim.numRequests = 8 * 64;
        fc.sim.warmupRequests = 0;
        fc.instances = 64;
        fc.policy = "round-robin";
        expectInterleaving(
            fc,
            {512,
             512,
             {225, 244, 191, 238, 211, 234, 209, 222, 249, 203, 224,
              232, 218, 236, 229, 248, 236, 211, 207, 197, 203, 219,
              216, 196, 225, 207, 205, 214, 220, 234, 190, 228, 220,
              240, 221, 219, 223, 233, 208, 244, 215, 214, 196, 241,
              200, 226, 205, 226, 250, 218, 216, 234, 223, 246, 262,
              222, 231, 227, 236, 231, 212, 234, 239, 221},
             1900767940834,
             33071,
             17.326984692790003,
             9.5229978719999995,
             9440112731393856952ULL,
             {}});
    }
}

TEST(Fleet, ScalingRequiresOpenLoop)
{
    EXPECT_EXIT(
        {
            FleetConfig fc;
            fc.sim = baseSim(); // closed loop: no arrival stamps
            fc.scaling.enabled = true;
            FleetDriver(fc).run();
        },
        ::testing::ExitedWithCode(1), "open-loop");
}

/** An open-loop autoscaled fleet with @p edit applied to scaling. */
template <typename Edit>
void
runScaled(Edit edit)
{
    FleetConfig fc;
    fc.sim = baseSim();
    fc.sim.workload.qps = 8.0;
    fc.scaling.enabled = true;
    edit(fc.scaling);
    FleetDriver(fc).run();
}

TEST(Fleet, ScaleSpecRejectsZeroWindow)
{
    // observedQps divides by the window: 0 made it inf and scaled
    // the fleet up to maxInstances whatever the arrival rate.
    EXPECT_EXIT(runScaled([](ScaleSpec &s) {
                    s.windowSec = 0.0;
                    s.upQpsPerInstance = 1000.0;
                }),
                ::testing::ExitedWithCode(1), "windowSec");
}

TEST(Fleet, ScaleSpecRejectsZeroMinInstances)
{
    // A floor of 0 let the autoscaler drain every instance and the
    // router panic with nowhere to send the next arrival.
    EXPECT_EXIT(runScaled([](ScaleSpec &s) { s.minInstances = 0; }),
                ::testing::ExitedWithCode(1), "minInstances");
}

TEST(Fleet, ScaleSpecRejectsMinAboveMax)
{
    // std::clamp(lo > hi) is undefined behaviour.
    EXPECT_EXIT(runScaled([](ScaleSpec &s) {
                    s.minInstances = 4;
                    s.maxInstances = 2;
                }),
                ::testing::ExitedWithCode(1), "maxInstances");
}

TEST(Fleet, ScaleSpecRejectsNegativeCooldown)
{
    EXPECT_EXIT(
        runScaled([](ScaleSpec &s) { s.cooldownSec = -1.0; }),
        ::testing::ExitedWithCode(1), "cooldownSec");
}

} // namespace
} // namespace duplex
