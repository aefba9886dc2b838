/**
 * @file
 * Simulator performance harness: times the end-to-end hot path and
 * emits BENCH_perf.json so the perf trajectory is a tracked,
 * per-PR artifact (uploaded by the CI Release job).
 *
 * Probes:
 *  - cost model: the O(1) closed-form attention costs against the
 *    retained per-context reference loops (batch 256);
 *  - set-up: host seconds of the process's first system build,
 *    which would show a per-process DRAM probe run coming back;
 *  - stage execution: stages/sec of Cluster::executeStage on a
 *    representative decode and mixed stage, and on a batch-16
 *    decode stage on the GPU (the perfbench fleet-wide instance
 *    shape, where per-layer MoE pricing shows);
 *  - figure sweeps: wall-clock of the Fig. 11 throughput sweep
 *    (the paper's headline figure, 135 simulations) and the
 *    Fig. 12 GLaM latency sweep through the SweepRunner, with
 *    stages/sec and requests/sec;
 *  - workload generation: requests/sec drawn from the registered
 *    workload sources (the streaming ArrivalQueue puts source
 *    draws on the driver loop's critical path);
 *  - prefix cache: acquire+install ops/sec of a PrefixCachePool
 *    under eviction churn (the kvcache probe sits on every
 *    admission and retirement of a cache-enabled run);
 *  - expert sampling: tokens/sec of the uniform top-2 expert draw
 *    (ExpertSelector::sampleInto) for Mixtral (8 experts) and GLaM
 *    (64 experts), the loop that dominates every MoE simulation.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "kvcache/prefix_cache.hh"
#include "workload/experts.hh"
#include "workload/registry.hh"

using namespace duplex;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Closed-form vs reference attention-cost microbenchmark. */
struct CostModelProbe
{
    double closedFormNs = 0.0;
    double referenceNs = 0.0;
    double speedup = 0.0;
    // Folded into the JSON so the compiler cannot drop the loops.
    double checksum = 0.0;
};

CostModelProbe
probeCostModel()
{
    const LayerCosts costs(mixtralConfig());
    StageShape stage;
    for (int i = 0; i < 256; ++i)
        stage.decodeContexts.push_back(1024 + 13 * i);
    for (int i = 0; i < 4; ++i)
        stage.prefillLengths.push_back(2048 + 101 * i);
    const StageAggregates agg = aggregatesOf(stage);

    CostModelProbe probe;
    const int iters = 20000;
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        probe.checksum += costs.attentionDecode(agg).flops;
        probe.checksum += costs.attentionPrefill(agg).flops;
    }
    probe.closedFormNs = secondsSince(t0) * 1e9 / iters;

    const int ref_iters = 2000;
    t0 = Clock::now();
    for (int i = 0; i < ref_iters; ++i) {
        probe.checksum -= costs.attentionDecodeReference(stage).flops;
        probe.checksum -= costs.attentionPrefillReference(stage).flops;
    }
    probe.referenceNs = secondsSince(t0) * 1e9 / ref_iters;
    probe.speedup = probe.closedFormNs > 0.0
                        ? probe.referenceNs / probe.closedFormNs
                        : 0.0;
    return probe;
}

/** One stage-execution probe: a system on a fixed stage shape. */
struct StageProbe
{
    const char *name;
    const char *system;
    const StageShape &stage;
    int iters;
    double stagesPerSec = 0.0;
};

/**
 * Stages/sec of each probe: the median of five windows of
 * `iters` stages each, so that one scheduling hiccup of a shared
 * machine does not set the number. The windows run in interleaved
 * rounds — every probe once per round — so a slow phase that
 * outlasts a whole probe lands on one window of each probe, not on
 * all five windows of one.
 */
void
probeStageExec(std::vector<StageProbe> &probes)
{
    std::vector<std::unique_ptr<ServingSystem>> systems;
    for (const StageProbe &p : probes) {
        systems.push_back(makeSystem(p.system, mixtralConfig()));
        // Warm up once (device LUT construction etc.).
        systems.back()->executeStage(p.stage);
    }
    constexpr std::size_t kRounds = 5;
    std::vector<std::array<double, kRounds>> rates(probes.size());
    for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const auto t0 = Clock::now();
            PicoSec sink = 0;
            for (int k = 0; k < probes[i].iters; ++k)
                sink += systems[i]->executeStage(probes[i].stage).time;
            const double sec = secondsSince(t0);
            rates[i][round] =
                sink > 0 && sec > 0.0 ? probes[i].iters / sec : 0.0;
        }
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto mid = rates[i].begin() + kRounds / 2;
        std::nth_element(rates[i].begin(), mid, rates[i].end());
        probes[i].stagesPerSec = *mid;
    }
}

struct SweepProbe
{
    const char *name = "";
    int configs = 0;
    double wallSec = 0.0;
    std::int64_t stages = 0;
    std::int64_t requests = 0;
    std::int64_t tokens = 0;
};

SweepProbe
timeSweep(const char *name, const std::vector<SimConfig> &configs)
{
    SweepProbe probe;
    probe.name = name;
    probe.configs = static_cast<int>(configs.size());
    const auto t0 = Clock::now();
    const std::vector<SimResult> results = runSweep(configs);
    probe.wallSec = secondsSince(t0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        probe.stages += results[i].metrics.decodingOnlyStages +
                        results[i].metrics.mixedStages;
        probe.requests += configs[i].numRequests;
        probe.tokens += results[i].generatedTokens;
    }
    return probe;
}

// The sweeps time exactly the configs the figure benches run
// (bench_util's fig11SweepConfigs / fig12SweepConfigs), so the
// tracked numbers stay in lockstep with the figures.

/** Requests/sec one workload source sustains. */
double
probeWorkloadGen(const std::string &id)
{
    WorkloadSpec spec;
    spec.qps = 8.0;
    spec.diurnalPeriodSec = 30.0;
    const std::unique_ptr<WorkloadSource> source =
        makeWorkload(id, spec);
    // Warm up once (lookahead buffer, first-state draws).
    std::int64_t sink = source->next().inputLen;
    const int iters = 200000;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i)
        sink += source->next().inputLen;
    const double sec = secondsSince(t0);
    return sink > 0 && sec > 0.0 ? iters / sec : 0.0;
}

/**
 * Acquire+install cycles/sec of a PrefixCachePool whose working
 * set (512 sessions x 256 tokens) overflows the budget (64 Ki
 * tokens), so the eviction scan stays on the timed path.
 */
double
probePrefixCache()
{
    PrefixCacheSpec spec;
    spec.budgetBytes = 64ll << 20;
    spec.evictPolicy = "lru";
    PrefixCachePool pool(spec, 1024);
    Request r;
    r.inputLen = 256;
    const int sessions = 512;
    const int iters = 100000;
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        r.sessionId = i % sessions;
        sink += pool.acquire(r);
        pool.install(r);
    }
    const double sec = secondsSince(t0);
    return sink >= 0 && sec > 0.0 ? iters / sec : 0.0;
}

/** Tokens drawn and seconds spent by the top-2 expert draw. */
struct ExpertSamplingProbe
{
    const char *name = "";
    std::int64_t tokens = 0;
    double wallSec = 0.0;
};

/**
 * Uniform top-2 draw over @p num_experts, one batch-256 MoE layer
 * per sampleInto call, as the simulators call it.
 */
ExpertSamplingProbe
probeExpertSampling(const char *name, int num_experts)
{
    const ExpertSelector selector(num_experts, 2);
    Rng rng(53);
    std::vector<std::int64_t> hist;
    const std::int64_t tokens_per_layer = 256;
    const int layers = 100000;
    // Warm up once (histogram allocation).
    selector.sampleInto(rng, tokens_per_layer, hist);
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < layers; ++i) {
        selector.sampleInto(rng, tokens_per_layer, hist);
        sink += hist[0];
    }
    ExpertSamplingProbe probe;
    probe.name = name;
    probe.wallSec = secondsSince(t0);
    probe.tokens = sink > 0 ? tokens_per_layer * layers : 0;
    return probe;
}

} // namespace

int
main()
{
    banner("Perf: simulator throughput (BENCH_perf.json)");

    // The process's first system build, before any other probe
    // builds one: the set-up every simulator run pays once.
    const auto setup_t0 = Clock::now();
    const std::unique_ptr<ServingSystem> first =
        makeSystem("duplex", mixtralConfig());
    const double first_system_s = secondsSince(setup_t0);
    std::printf("setup: first duplex system built in %.6f s\n",
                first_system_s);

    const CostModelProbe cost = probeCostModel();
    std::printf("cost model: closed form %.1f ns, reference %.1f "
                "ns, speedup %.1fx\n",
                cost.closedFormNs, cost.referenceNs, cost.speedup);

    StageShape decode_stage;
    for (int i = 0; i < 64; ++i)
        decode_stage.decodeContexts.push_back(2048);
    StageShape mixed_stage = decode_stage;
    mixed_stage.prefillLengths.push_back(2048);
    // Perfbench fleet-wide's instance: batch 16, Lin 256 / Lout 64.
    StageShape decode16_stage;
    for (int i = 0; i < 16; ++i)
        decode16_stage.decodeContexts.push_back(288);

    std::vector<StageProbe> stage_probes = {
        {"gpu_decode64", "gpu", decode_stage, 300},
        {"gpu_mixed64", "gpu", mixed_stage, 300},
        {"gpu_decode16", "gpu", decode16_stage, 3000},
        {"duplex_decode64", "duplex-pe-et", decode_stage, 300},
        {"duplex_mixed64", "duplex-pe-et", mixed_stage, 300},
    };
    probeStageExec(stage_probes);
    for (const StageProbe &p : stage_probes)
        std::printf("stage exec %-16s %10.0f stages/s\n", p.name,
                    p.stagesPerSec);

    struct WorkloadGenProbe
    {
        const char *name;
        double requestsPerSec;
    };
    const WorkloadGenProbe workload_probes[] = {
        {"synthetic", probeWorkloadGen("synthetic")},
        {"bursty", probeWorkloadGen("bursty")},
        {"diurnal", probeWorkloadGen("diurnal")},
        {"mixed", probeWorkloadGen("mixed")},
        {"session", probeWorkloadGen("session")},
    };
    for (const WorkloadGenProbe &p : workload_probes)
        std::printf("workload gen %-12s %12.0f requests/s\n",
                    p.name, p.requestsPerSec);

    const double prefix_cache_ops = probePrefixCache();
    std::printf("prefix cache %25.0f acquire+install/s\n",
                prefix_cache_ops);

    const ExpertSamplingProbe expert_probes[] = {
        probeExpertSampling("nex8_top2", 8),
        probeExpertSampling("nex64_top2", 64),
    };
    std::int64_t expert_tokens = 0;
    double expert_sec = 0.0;
    for (const ExpertSamplingProbe &p : expert_probes) {
        std::printf("expert sampling %-10s %12.0f tokens/s\n",
                    p.name, p.tokens / p.wallSec);
        expert_tokens += p.tokens;
        expert_sec += p.wallSec;
    }

    const SweepProbe sweeps[] = {
        timeSweep("fig11-throughput", fig11SweepConfigs()),
        timeSweep("fig12-glam-latency", fig12SweepConfigs())};
    for (const SweepProbe &s : sweeps)
        std::printf("%s: %d configs in %.2f s (%.0f stages/s, "
                    "%.0f requests/s)\n",
                    s.name, s.configs, s.wallSec,
                    s.stages / s.wallSec,
                    s.requests / s.wallSec);

    std::FILE *json = std::fopen("BENCH_perf.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_perf.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"schema\": 1,\n");
    std::fprintf(json, "  \"sweep_workers\": %d,\n",
                 SweepRunner().workers());
    std::fprintf(json,
                 "  \"cost_model\": {\"closed_form_ns\": %.3f, "
                 "\"reference_ns\": %.3f, \"speedup\": %.3f, "
                 "\"checksum\": %.17g},\n",
                 cost.closedFormNs, cost.referenceNs, cost.speedup,
                 cost.checksum);
    std::fprintf(json, "  \"setup\": {\"first_system_s\": %.6f},\n",
                 first_system_s);
    std::fprintf(json, "  \"stage_exec\": {");
    for (std::size_t i = 0; i < std::size(stage_probes); ++i)
        std::fprintf(json, "%s\"%s\": %.3f", i ? ", " : "",
                     stage_probes[i].name,
                     stage_probes[i].stagesPerSec);
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"workload_gen\": {");
    for (std::size_t i = 0; i < std::size(workload_probes); ++i)
        std::fprintf(json, "%s\"%s\": %.3f", i ? ", " : "",
                     workload_probes[i].name,
                     workload_probes[i].requestsPerSec);
    std::fprintf(json, "},\n");
    std::fprintf(json,
                 "  \"prefix_cache\": {\"ops_per_sec\": %.3f},\n",
                 prefix_cache_ops);
    // tokens_per_sec (gated) pools both gates' tokens and seconds.
    std::fprintf(json,
                 "  \"expert_sampling\": {\"tokens_per_sec\": %.3f",
                 expert_tokens / expert_sec);
    for (const ExpertSamplingProbe &p : expert_probes)
        std::fprintf(json, ", \"%s\": %.3f", p.name,
                     p.tokens / p.wallSec);
    std::fprintf(json, "},\n");
    std::fprintf(json, "  \"figure_sweeps\": [");
    for (std::size_t i = 0; i < std::size(sweeps); ++i) {
        const SweepProbe &s = sweeps[i];
        std::fprintf(json,
                     "%s{\"name\": \"%s\", \"configs\": %d, "
                     "\"wall_sec\": %.3f, \"stages_per_sec\": %.1f, "
                     "\"requests_per_sec\": %.2f, "
                     "\"tokens_per_sec\": %.1f}",
                     i ? ", " : "", s.name, s.configs, s.wallSec,
                     s.stages / s.wallSec,
                     s.requests / s.wallSec,
                     s.tokens / s.wallSec);
    }
    std::fprintf(json, "]\n");
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote BENCH_perf.json\n");
    return 0;
}
