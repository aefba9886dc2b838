#include "harness.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "dram/calibrate.hh"
#include "fleet/fleet.hh"
#include "sim/engine.hh"
#include "workload/experts.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------
// Workload shapes. Sizes are per cell; a pass runs the workload's
// cells, each with its own derived seed.

/** moe-single: requests per cell and the open-loop rate. */
constexpr int kMoeRequests = 4000;
constexpr double kMoeQps = 240.0;

/**
 * fleet-wide: instances, per-instance rate and requests. 16 requests
 * per instance span 2.7 simulated seconds of arrivals, about five
 * service times (64 tokens at a TBT of about 8 ms), so arrivals and
 * retirements overlap at steady state for most of the cell.
 */
constexpr int kFleetInstances = 512;
constexpr double kFleetQpsPerInstance = 6.0;
constexpr int kFleetRequestsPerInstance = 16;

/** sessions-dense: instances, fresh sessions/s each, requests. */
constexpr int kSessionInstances = 8;
constexpr double kSessionQpsPerInstance = 0.75;
constexpr int kSessionRequests = 6000;

SimConfig
moeSingleConfig(std::uint64_t seed, bool traced)
{
    SimConfig c;
    c.systemName = traced ? tracedId("duplex") : "duplex";
    c.model = mixtralConfig();
    c.maxBatch = 256;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.workload.qps = kMoeQps;
    c.workload.seed = seed;
    c.numRequests = kMoeRequests;
    c.warmupRequests = defaultWarmupRequests(c.maxBatch);
    // Every request must retire for requests/s to mean anything.
    c.maxStages = std::numeric_limits<std::int64_t>::max();
    c.seed = seed;
    return c;
}

FleetConfig
fleetWideConfig(std::uint64_t seed, bool traced)
{
    FleetConfig fc;
    fc.sim.systemName = traced ? tracedId("gpu") : "gpu";
    fc.sim.model = mixtralConfig();
    fc.sim.maxBatch = 16;
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    fc.sim.workload.qps = kFleetQpsPerInstance * kFleetInstances;
    fc.sim.workload.seed = seed;
    fc.sim.numRequests = kFleetInstances * kFleetRequestsPerInstance;
    fc.sim.warmupRequests = 0;
    fc.sim.maxStages = std::numeric_limits<std::int64_t>::max();
    fc.sim.seed = seed;
    fc.instances = kFleetInstances;
    fc.policy = traced ? tracedId("least-loaded") : "least-loaded";
    return fc;
}

FleetConfig
sessionsDenseConfig(std::uint64_t seed, bool traced)
{
    FleetConfig fc;
    fc.sim.systemName = traced ? tracedId("duplex") : "duplex";
    fc.sim.model = llama3Config();
    fc.sim.maxBatch = 32;
    fc.sim.workloadName = "session";
    fc.sim.workload.meanInputLen = 256;
    fc.sim.workload.meanOutputLen = 64;
    fc.sim.workload.qps = kSessionQpsPerInstance * kSessionInstances;
    fc.sim.workload.sessionTurns = 4;
    fc.sim.workload.sharedPrefixTokens = 512;
    fc.sim.workload.meanThinkSec = 1.0;
    fc.sim.workload.priorityFrac = 0.25;
    fc.sim.workload.seed = seed;
    fc.sim.numRequests = kSessionRequests;
    fc.sim.warmupRequests = 16;
    fc.sim.maxStages = std::numeric_limits<std::int64_t>::max();
    fc.sim.schedPolicy = "priority";
    fc.sim.prefillChunkTokens = 256;
    fc.sim.prefixCache.budgetBytes = std::int64_t{3} << 30;
    fc.sim.prefixCache.evictPolicy = traced ? tracedId("lru") : "lru";
    fc.sim.prefixCache.sharedPrefixTokens =
        fc.sim.workload.sharedPrefixTokens;
    fc.sim.seed = seed;
    fc.instances = kSessionInstances;
    fc.policy =
        traced ? tracedId("session-affinity") : "session-affinity";
    fc.faults.numDomains = 2;
    fc.faults.domainMtbfSec = 150.0;
    fc.faults.domainMttrSec = 2.0;
    fc.faults.mtbfSec = 60.0;
    fc.faults.mttrSec = 1.0;
    fc.faults.stragglerFraction = 0.5;
    fc.faults.stragglerFactor = 4.0;
    fc.faults.drainFactorThreshold = 3.0;
    return fc;
}

// ---------------------------------------------------------------
// The run's own observer: counts what the fingerprint and the
// layer table need and stamps the first simulated stage.

struct Counts
{
    Clock::time_point firstStage{};
    bool sawStage = false;
    std::int64_t stages = 0;
    std::int64_t retired = 0;
    std::int64_t routed = 0;
    std::int64_t crashes = 0;
    std::int64_t retries = 0;
    std::int64_t dropped = 0;
    std::int64_t promptTokens = 0;
    std::int64_t cachedTokens = 0;

    void stage()
    {
        if (!sawStage) {
            firstStage = Clock::now();
            sawStage = true;
        }
        ++stages;
    }

    void retire(const Request &r)
    {
        ++retired;
        promptTokens += r.inputLen;
        cachedTokens += r.cachedTokens;
    }
};

class EngineCounter : public SimObserver
{
  public:
    explicit EngineCounter(Counts &c) : c_(c) {}

    void onStage(const StageObservation &) override { c_.stage(); }

    void onRequestRetired(const Request &r, PicoSec) override
    {
        c_.retire(r);
    }

  private:
    Counts &c_;
};

class FleetCounter : public FleetObserver
{
  public:
    explicit FleetCounter(Counts &c) : c_(c) {}

    void onRequestRouted(int, const Request &, PicoSec) override
    {
        ++c_.routed;
    }

    void onStage(int, const StageObservation &) override
    {
        c_.stage();
    }

    void onRequestRetired(int, const Request &r, PicoSec) override
    {
        c_.retire(r);
    }

    void onFault(int, const FaultEvent &event, PicoSec) override
    {
        if (event.kind == FaultKind::Crash)
            ++c_.crashes;
    }

    void onRetry(int, const Request &, int, bool dropped,
                 PicoSec) override
    {
        ++(dropped ? c_.dropped : c_.retries);
    }

  private:
    Counts &c_;
};

// ---------------------------------------------------------------
// Checks.

void
expect(bool ok, const std::string &what, CellRun &run)
{
    if (!ok)
        run.violations.push_back(what);
}

void
checkLedger(const PrefixCacheMetrics &m, const std::string &where,
            CellRun &run)
{
    expect(m.installedBytes ==
               m.evictedBytes + m.acquiredBytes + m.residentBytes,
           "prefix-cache byte ledger open (" + where + ")", run);
}

void
fillLatency(const ServingMetrics &m, Fingerprint &fp)
{
    fp.ttftP50 = m.t2ftMs.percentile(50);
    fp.ttftP99 = m.t2ftMs.percentile(99);
    fp.tbtP50 = m.tbtMs.percentile(50);
    fp.tbtP99 = m.tbtMs.percentile(99);
}

void
finishEngineCell(const SimConfig &c, const SimResult &r,
                 const Counts &counts, CellRun &run)
{
    Fingerprint &fp = run.fp;
    fp.requests = c.numRequests;
    fp.retired = counts.retired;
    fp.tokens = r.generatedTokens;
    fp.stages = counts.stages;
    fp.elapsedPs = r.metrics.elapsed;
    fillLatency(r.metrics, fp);
    fp.cacheHits = r.prefixCache.hits;
    fp.evictions = r.prefixCache.evictions;

    run.cacheLookups = r.prefixCache.lookups;
    expect(fp.retired + fp.dropped == fp.requests,
           "retired + dropped != requests", run);
    checkLedger(r.prefixCache, "instance 0", run);
}

void
finishFleetCell(const FleetConfig &fc, const FleetResult &r,
                const Counts &counts, CellRun &run)
{
    Fingerprint &fp = run.fp;
    fp.requests = fc.sim.numRequests;
    fp.retired = r.requestsRetired;
    fp.dropped = r.requestsDropped;
    fp.tokens = r.generatedTokens;
    fp.stages = counts.stages;
    fp.elapsedPs = r.metrics.elapsed;
    fillLatency(r.metrics, fp);
    fp.cacheHits = r.prefixCache.hits;
    fp.evictions = r.prefixCache.evictions;
    fp.crashes = r.crashes;
    fp.retries = r.retriesScheduled;
    fp.migrated = r.requestsMigrated;

    run.routes = r.requestsRouted;
    run.cacheLookups = r.prefixCache.lookups;

    expect(fp.retired + fp.dropped == fp.requests,
           "retired + dropped != requests", run);
    expect(r.requestsRouted ==
               fp.requests + r.retriesScheduled + r.requestsMigrated,
           "routed != requests + retries + migrated", run);
    expect(counts.retired == r.requestsRetired,
           "observed retirements != requestsRetired", run);
    expect(counts.routed == r.requestsRouted,
           "observed routes != requestsRouted", run);
    expect(counts.crashes == r.crashes,
           "observed crashes != FleetResult crashes", run);
    expect(counts.retries == r.retriesScheduled,
           "observed retries != retriesScheduled", run);
    expect(counts.dropped == r.requestsDropped,
           "observed drops != requestsDropped", run);
    checkLedger(r.prefixCache, "fleet", run);
    for (std::size_t i = 0; i < r.perInstance.size(); ++i)
        checkLedger(r.perInstance[i].prefixCache,
                    "instance " + std::to_string(i), run);
}

/** Price the traced stages' expert draws on a fresh selector. */
void
replayExpertDraws(const ModelConfig &model, std::uint64_t seed,
                  Tracer &tracer, CellRun &run)
{
    const std::vector<std::int64_t> stages = tracer.takeMoeStages();
    if (stages.empty())
        return;
    const int layers = tracer.moeLayers();
    const ExpertSelector selector(model.numExperts, model.topK);
    Rng rng(seed);
    std::vector<std::int64_t> hist;
    std::int64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::int64_t tokens : stages)
        for (int l = 0; l < layers; ++l) {
            selector.sampleInto(rng, tokens, hist);
            sink += hist[0];
        }
    run.expertsSampleS = secondsBetween(t0, Clock::now());
    for (std::int64_t tokens : stages)
        run.expertTokens += tokens * layers;
    // Every draw lands in some expert; the sum keeps the replay
    // from being optimized away.
    panicIf(sink < 0, "expert replay histogram underflow");
}

} // namespace

const std::vector<WorkloadInfo> &
workloads()
{
    static const std::vector<WorkloadInfo> list = {
        {"moe-single",
         "the paper's device on the paper's model: one duplex "
         "Mixtral instance at batch 256 near its service rate, where "
         "the top-2 expert draw dominates; bypasses fleet, cache, "
         "faults",
         3},
        {"fleet-wide",
         "512 gpu Mixtral instances at batch 16 behind least-loaded "
         "routing, where O(instances) fleet-driver scans and "
         "per-layer MoE call overhead show",
         1},
        {"sessions-dense",
         "8 duplex Llama3-70B (dense) instances on multi-turn "
         "sessions with prefix cache, priority chunking, affinity "
         "routing and domain faults; no expert draws",
         3},
    };
    return list;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
cellSeed(std::uint64_t seed, int cell)
{
    return mixSessionHash(seed * 1000003ULL +
                          static_cast<std::uint64_t>(cell));
}

std::string
Fingerprint::str() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "requests=%lld retired=%lld dropped=%lld tokens=%lld "
        "stages=%lld elapsed_ps=%lld ttft_p50=%.17g ttft_p99=%.17g "
        "tbt_p50=%.17g tbt_p99=%.17g cache_hits=%lld evictions=%lld "
        "crashes=%lld retries=%lld migrated=%lld",
        static_cast<long long>(requests),
        static_cast<long long>(retired),
        static_cast<long long>(dropped),
        static_cast<long long>(tokens), static_cast<long long>(stages),
        static_cast<long long>(elapsedPs), ttftP50, ttftP99, tbtP50,
        tbtP99, static_cast<long long>(cacheHits),
        static_cast<long long>(evictions),
        static_cast<long long>(crashes),
        static_cast<long long>(retries),
        static_cast<long long>(migrated));
    return buf;
}

CellRun
runCell(const std::string &workload, std::uint64_t seed, int cell,
        Tracer *tracer)
{
    panicIf(findWorkload(workload) == nullptr,
            "unknown workload " + workload);
    const bool traced = tracer != nullptr;
    if (traced) {
        registerTracedWrappers({"duplex", "gpu"},
                               {"least-loaded", "session-affinity"},
                               {"lru"});
        tracer->resetTotals();
        tracer->takeMoeStages();
        tracer->setCell(cell);
        setActiveTracer(tracer);
    }

    const std::uint64_t s = cellSeed(seed, cell);
    CellRun run;
    run.traced = traced;
    Counts counts;
    Clock::time_point t0;
    ModelConfig model;

    if (workload == "moe-single") {
        const SimConfig c = moeSingleConfig(s, traced);
        model = c.model;
        EngineCounter counter(counts);
        TimedSimObserver timed(counter);
        SimulationEngine engine(c);
        engine.addObserver(traced ? static_cast<SimObserver *>(&timed)
                                  : &counter);
        t0 = Clock::now();
        SimResult r;
        if (traced) {
            Span root(Layer::Driver);
            r = engine.run();
        } else {
            r = engine.run();
        }
        const Clock::time_point t1 = Clock::now();
        run.runS = secondsBetween(counts.firstStage, t1);
        finishEngineCell(c, r, counts, run);
    } else {
        const FleetConfig fc = workload == "fleet-wide"
                                   ? fleetWideConfig(s, traced)
                                   : sessionsDenseConfig(s, traced);
        model = fc.sim.model;
        FleetCounter counter(counts);
        TimedFleetObserver timed(counter);
        FleetDriver driver(fc);
        driver.addObserver(traced
                               ? static_cast<FleetObserver *>(&timed)
                               : &counter);
        t0 = Clock::now();
        FleetResult r;
        if (traced) {
            Span root(Layer::Driver);
            r = driver.run();
        } else {
            r = driver.run();
        }
        const Clock::time_point t1 = Clock::now();
        run.runS = secondsBetween(counts.firstStage, t1);
        finishFleetCell(fc, r, counts, run);
    }

    run.setupS = secondsBetween(t0, counts.firstStage);
    expect(counts.sawStage, "no stage executed", run);
    run.promptTokens = counts.promptTokens;
    run.cachedTokens = counts.cachedTokens;

    if (traced) {
        setActiveTracer(nullptr);
        for (std::size_t i = 0; i < run.layers.size(); ++i)
            run.layers[i] = tracer->totals(static_cast<Layer>(i));
        replayExpertDraws(model, s, *tracer, run);
    }
    return run;
}

namespace
{

/** Ends a set-up probe at the run's first simulated stage. */
class FirstStageExit : public SimObserver, public FleetObserver
{
  public:
    explicit FirstStageExit(std::int64_t origin_ns) : origin_(origin_ns) {}

    void onStage(const StageObservation &) override { exit(); }
    void onStage(int, const StageObservation &) override { exit(); }

  private:
    [[noreturn]] void exit() const
    {
        const std::int64_t now =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count();
        std::printf("%.9f\n", 1e-9 * static_cast<double>(now - origin_));
        std::fflush(stdout);
        // Nothing after the first stage is measured; skip the rest
        // of the run and the teardown.
        std::_Exit(0);
    }

    std::int64_t origin_;
};

} // namespace

void
probeSetup(const std::string &workload, std::uint64_t seed,
           std::int64_t origin_ns)
{
    panicIf(findWorkload(workload) == nullptr,
            "unknown workload " + workload);
    cachedCalibration();
    const std::uint64_t s = cellSeed(seed, 0);
    FirstStageExit stop(origin_ns);
    if (workload == "moe-single") {
        SimulationEngine engine(moeSingleConfig(s, false));
        engine.addObserver(&stop);
        engine.run();
    } else {
        FleetDriver driver(workload == "fleet-wide"
                               ? fleetWideConfig(s, false)
                               : sessionsDenseConfig(s, false));
        driver.addObserver(&stop);
        driver.run();
    }
    panic("set-up probe: the run ended without a stage");
}

bool
drawStream(const std::string &workload, std::uint64_t seed, int cell,
           double &seconds, std::int64_t &requests)
{
    const std::uint64_t s = cellSeed(seed, cell);
    const SimConfig c = workload == "moe-single"
                            ? moeSingleConfig(s, false)
                        : workload == "fleet-wide"
                            ? fleetWideConfig(s, false).sim
                            : sessionsDenseConfig(s, false).sim;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<WorkloadSource> source =
        makeWorkload(c.workloadIdOrDefault(), c.workload);
    if (source->wantsRetirements())
        return false;
    std::int64_t n = 0;
    PicoSec last = 0;
    for (; n < c.numRequests && source->remaining() > 0; ++n)
        last = source->next().arrival;
    seconds = secondsBetween(t0, Clock::now());
    requests = n;
    panicIf(last < 0, "negative arrival in a drained stream");
    return true;
}

std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    fatalIf(!in, "perfbench: cannot read " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.find(' ');
        fatalIf(space == std::string::npos,
                "perfbench: malformed line in " + path + ": " + line);
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

std::string
expectedKey(const std::string &workload, int cell)
{
    return workload + "/" + std::to_string(cell);
}

std::vector<std::pair<std::string, std::string>>
machineContext()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    return {
        {"cpu", cpu},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"commit", commit != nullptr ? commit : "unknown"},
    };
}

} // namespace perfbench
