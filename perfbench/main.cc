/**
 * @file
 * The simulator's host-time benchmark: one workload per process
 * (peak RSS is process-wide), measured for a fixed wall-clock
 * budget in whole passes over the workload's cells.
 *
 *   perfbench --workload=moe-single --seed=1 --seconds=10 --trace=0
 *
 * --trace=0 measures the end-to-end metrics untraced:
 *   requests_per_s  simulated requests retired per host second
 *                   after set-up (median over passes)
 *   peak_rss_mb     the process's peak resident memory
 *   setup_s         host seconds from process start to the first
 *                   simulated stage, median over fresh processes
 *                   (set-up probes, see probeSetup)
 * --trace=1 runs each cell untraced, then traced, and reports the
 * per-layer metrics (per pass, averaged over the traced passes), the
 * tracing overhead and the layer table's closure residual.
 *
 * Every cell execution is checked (see harness.hh); a failed check
 * counts the cell as failed. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/argparse.hh"
#include "common/log.hh"
#include "common/rss.hh"
#include "dram/calibrate.hh"
#include "harness.hh"

extern char **environ;

using namespace duplex;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * The CPUs this process may run on. Cell executions rotate over
 * them (one pinned CPU each) so a run samples every CPU evenly: on a
 * shared host the CPUs run at different speeds, and a run left to
 * the scheduler's placement would sample them in arbitrary shares.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    /** Pin the process to the next CPU of the rotation. */
    void next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

  private:
    std::vector<int> cpus_;
    std::size_t turn_ = 0;
};

/**
 * Peak resident memory of this process image, in MB. VmHWM is reset
 * by exec, unlike getrusage's ru_maxrss, which keeps the high-water
 * mark of the launcher the process was forked from.
 */
double
peakRss()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return peakRssMb();
}

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Checks every cell execution and counts the outcome. */
class Checker
{
  public:
    Checker(std::string workload, std::uint64_t seed,
            std::map<std::string, std::string> expected)
        : workload_(std::move(workload)), seed_(seed),
          expected_(std::move(expected))
    {
    }

    /** Record one execution of cell @p cell. */
    void check(int cell, const CellRun &run)
    {
        ++attempted_;
        std::vector<std::string> why = run.violations;
        const std::string fp = run.fp.str();
        if (seed_ == kDefaultSeed) {
            auto it = expected_.find(expectedKey(workload_, cell));
            if (it == expected_.end())
                why.push_back("no committed fingerprint");
            else if (it->second != fp)
                why.push_back("fingerprint differs from the "
                              "committed one: " + it->second);
        }
        auto seen = first_.find(cell);
        if (seen == first_.end()) {
            first_[cell] = fp;
            std::printf("cell %d (seed %llu, %s%s): %s\n", cell,
                        static_cast<unsigned long long>(
                            cellSeed(seed_, cell)),
                        run.traced ? "traced" : "untraced",
                        why.empty() ? "" : ", FAILED", fp.c_str());
        } else if (seen->second != fp) {
            why.push_back(std::string(run.traced ? "traced" : "untraced") +
                          " fingerprint differs from the cell's first "
                          "execution: " + fp);
        }
        for (const std::string &w : why)
            std::fprintf(stderr, "FAILED %s cell %d: %s\n",
                         workload_.c_str(), cell, w.c_str());
        if (!why.empty())
            ++failed_;
    }

    long long attempted() const { return attempted_; }
    long long failed() const { return failed_; }

  private:
    std::string workload_;
    std::uint64_t seed_;
    std::map<std::string, std::string> expected_;
    std::map<int, std::string> first_;
    long long attempted_ = 0;
    long long failed_ = 0;
};

/** A pass: every cell of the workload once. */
std::vector<CellRun>
runPass(const WorkloadInfo &workload, std::uint64_t seed,
        Checker &checker, CpuRotation &rotation)
{
    std::vector<CellRun> pass;
    for (int cell = 0; cell < workload.cells; ++cell) {
        rotation.next();
        pass.push_back(runCell(workload.name, seed, cell, nullptr));
        checker.check(cell, pass.back());
    }
    return pass;
}

/**
 * Spawn a fresh copy of this program as a set-up probe and return
 * its host seconds from the spawn to its first simulated stage.
 */
double
spawnSetupProbe(const std::string &workload, std::uint64_t seed)
{
    int fds[2];
    fatalIf(pipe(fds) != 0, "perfbench: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    std::vector<std::string> args = {
        "perfbench", "--workload=" + workload,
        "--seed=" + std::to_string(seed), "--setup-probe="};
    std::vector<char *> argv;
    const std::int64_t origin =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    args.back() += std::to_string(origin);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int err = posix_spawn(&pid, "/proc/self/exe", &actions,
                                nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);

    std::string out;
    char buf[256];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    const bool exited = err == 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    fatalIf(!exited || out.empty(), "perfbench: set-up probe failed");
    return std::stod(out);
}

double
passRequestsPerSec(const std::vector<CellRun> &pass)
{
    double retired = 0.0;
    double seconds = 0.0;
    for (const CellRun &run : pass) {
        retired += static_cast<double>(run.fp.retired);
        seconds += run.runS;
    }
    return ratio(retired, seconds);
}

/** Fresh processes whose set-up times setup_s takes the median of. */
constexpr int kSetupProbes = 5;

std::vector<Metric>
endToEnd(const WorkloadInfo &workload, std::uint64_t seed,
         double seconds, Checker &checker)
{
    // Set-up happens once per process, so each sample is a fresh
    // process, pinned like a cell.
    CpuRotation rotation;
    std::vector<double> setup;
    for (int i = 0; i < kSetupProbes; ++i) {
        rotation.next();
        setup.push_back(spawnSetupProbe(workload.name, seed));
    }

    std::vector<double> rates;
    const Clock::time_point start = Clock::now();
    do {
        rates.push_back(
            passRequestsPerSec(runPass(workload, seed, checker, rotation)));
    } while (since(start) < seconds);

    std::printf("passes: %zu, requests/s per pass:", rates.size());
    for (double r : rates)
        std::printf(" %.1f", r);
    std::printf("\nset-up probes (s):");
    for (double s : setup)
        std::printf(" %.4f", s);
    std::printf("\n");
    return {
        {"requests_per_s", median(rates), "1/s"},
        {"peak_rss_mb", peakRss(), "MB"},
        {"setup_s", median(setup), "s"},
    };
}

/** Write @p tracer's captured spans to the build's spans directory. */
void
writeSpans(const std::string &workload, std::uint64_t seed,
           const Tracer &tracer)
{
    const std::filesystem::path dir = PERFBENCH_SPANS_DIR;
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (workload + "-seed" + std::to_string(seed) + ".tsv"))
            .string();
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << "id\tparent\tcell\tname\tstart_ns\tend_ns\n";
    for (const SpanRecord &s : tracer.records())
        out << s.id << '\t' << s.parent << '\t' << s.cell << '\t'
            << layerName(s.layer) << '\t' << s.startNs << '\t'
            << s.endNs << '\n';
}

std::vector<Metric>
perLayer(const WorkloadInfo &workload, std::uint64_t seed,
         double seconds, double first_calibration, Checker &checker)
{
    // The standalone stream drain, once per cell.
    double draw_s = 0.0;
    std::int64_t drawn = 0;
    bool draw_measured = true;
    for (int cell = 0; cell < workload.cells; ++cell) {
        double s = 0.0;
        std::int64_t n = 0;
        draw_measured = drawStream(workload.name, seed, cell, s, n);
        if (!draw_measured)
            break;
        draw_s += s;
        drawn += n;
    }

    // Each cell runs untraced, then traced, on the same pinned CPU,
    // so the pair prices the tracing overhead like for like.
    CpuRotation rotation;
    Tracer tracer;
    tracer.setCapture(true);
    std::vector<CellRun> traced;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    int passes = 0;
    const Clock::time_point start = Clock::now();
    do {
        for (int cell = 0; cell < workload.cells; ++cell) {
            rotation.next();
            const CellRun plain =
                runCell(workload.name, seed, cell, nullptr);
            checker.check(cell, plain);
            traced.push_back(runCell(workload.name, seed, cell, &tracer));
            tracer.setCapture(false);
            checker.check(cell, traced.back());
            untraced_wall += plain.setupS + plain.runS;
            traced_wall += traced.back().setupS + traced.back().runS;
        }
        ++passes;
    } while (since(start) < seconds);
    writeSpans(workload.name, seed, tracer);

    // Per-pass means over the traced passes.
    const double n = passes;
    auto layer = [&](Layer l) {
        LayerTotals sum;
        for (const CellRun &run : traced) {
            const LayerTotals &t =
                run.layers[static_cast<std::size_t>(l)];
            sum.calls += t.calls;
            sum.totalS += t.totalS;
            sum.selfS += t.selfS;
        }
        return sum;
    };
    double experts_s = 0.0;
    double expert_tokens = 0.0;
    double routes = 0.0, lookups = 0.0, hits = 0.0, evictions = 0.0;
    double prompt = 0.0, cached = 0.0, requests = 0.0;
    double crashes = 0.0, retries = 0.0, migrated = 0.0, dropped = 0.0;
    for (const CellRun &run : traced) {
        experts_s += run.expertsSampleS;
        expert_tokens += static_cast<double>(run.expertTokens);
        routes += static_cast<double>(run.routes);
        lookups += static_cast<double>(run.cacheLookups);
        hits += static_cast<double>(run.fp.cacheHits);
        evictions += static_cast<double>(run.fp.evictions);
        prompt += static_cast<double>(run.promptTokens);
        cached += static_cast<double>(run.cachedTokens);
        requests += static_cast<double>(run.fp.requests);
        crashes += static_cast<double>(run.fp.crashes);
        retries += static_cast<double>(run.fp.retries);
        migrated += static_cast<double>(run.fp.migrated);
        dropped += static_cast<double>(run.fp.dropped);
    }
    const LayerTotals stage = layer(Layer::StageExec);
    const LayerTotals route = layer(Layer::Route);
    const LayerTotals victim = layer(Layer::Victim);
    const LayerTotals observers = layer(Layer::Observers);
    const LayerTotals driver = layer(Layer::Driver);

    // The wall comes from the harness clock around run(), not from
    // the spans, so the closure residual shows spans that escaped the
    // root span or were counted twice, plus the root span's own cost.
    const double wall = traced_wall / n;
    const double stage_s = stage.totalS / n;
    const double experts = experts_s / n;
    const double stage_self = stage.selfS / n - experts;
    const double closure = experts + stage_self + route.selfS / n +
                           victim.selfS / n + observers.selfS / n +
                           driver.selfS / n;
    const double overhead = ratio(traced_wall - untraced_wall,
                                  untraced_wall);

    std::printf("traced passes: %d; per pass: wall %.4f s, closure "
                "residual %.3g s, tracing overhead %.2f%%\n",
                passes, wall, wall - closure, 100.0 * overhead);
    if (!draw_measured)
        std::printf("workload.draw_s: unmeasured (the source needs "
                    "retirement feedback)\n");

    return {
        {"stage_exec.s", stage_s, "s"},
        {"stage_exec.calls", stage.calls / n, "count"},
        {"stage_exec.us_per_call", 1e6 * ratio(stage.totalS,
                                               stage.calls), "us"},
        {"experts.sample_s", experts, "s"},
        {"experts.tokens", expert_tokens / n, "count"},
        {"experts.ns_per_token", 1e9 * ratio(experts_s, expert_tokens),
         "ns"},
        {"stage_exec.self_s", stage_self, "s"},
        {"driver.self_s", driver.selfS / n, "s"},
        {"fleet.route_s", route.totalS / n, "s"},
        {"fleet.routes", route.calls / n, "count"},
        {"fleet.routes_per_request", ratio(routes, requests), "ratio"},
        {"kvcache.victim_s", victim.totalS / n, "s"},
        {"kvcache.victim_calls", victim.calls / n, "count"},
        {"kvcache.hit_rate", ratio(hits, lookups), "ratio"},
        {"kvcache.hit_token_frac", ratio(cached, prompt), "ratio"},
        {"kvcache.evictions", evictions / n, "count"},
        {"faults.crashes", crashes / n, "count"},
        {"faults.retries", retries / n, "count"},
        {"faults.migrated", migrated / n, "count"},
        {"faults.dropped", dropped / n, "count"},
        {"observers.s", observers.totalS / n, "s"},
        {"workload.draw_s", draw_s, "s"},
        {"workload.requests", static_cast<double>(drawn), "count"},
        {"setup.calibrate_s", first_calibration, "s"},
        {"trace.overhead_frac", overhead, "ratio"},
        {"trace.wall_s", wall, "s"},
        {"trace.residual_s", wall - closure, "s"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args;
    args.addFlag("workload", "moe-single | fleet-wide | sessions-dense",
                 "moe-single");
    args.addFlag("seed", "workload seed; cell seeds derive from it",
                 "1");
    args.addFlag("seconds", "wall-clock budget of the measurement",
                 "10");
    args.addFlag("trace", "0: end-to-end metrics, 1: per-layer", "0");
    args.addFlag("setup-probe",
                 "internal: run as a set-up probe spawned at this "
                 "steady-clock time (ns)",
                 "");
    args.parse(argc, argv);

    const std::string workload = args.getString("workload");
    const std::int64_t seed = args.getInt("seed");
    const double seconds = args.getDouble("seconds");
    const std::int64_t trace = args.getInt("trace");
    const WorkloadInfo *info = findWorkload(workload);
    if (info == nullptr || seed < 0 || seconds <= 0.0 ||
        (trace != 0 && trace != 1)) {
        std::fprintf(stderr, "perfbench: bad arguments (workload %s, "
                             "seed %lld, seconds %g, trace %lld)\n",
                     workload.c_str(), static_cast<long long>(seed),
                     seconds, static_cast<long long>(trace));
        return 2;
    }
    if (!args.getString("setup-probe").empty())
        probeSetup(workload, static_cast<std::uint64_t>(seed),
                   args.getInt("setup-probe"));

    for (const auto &[key, value] : machineContext())
        std::printf("machine %s: %s\n", key.c_str(), value.c_str());
    std::printf("workload %s: %s\n", info->name.c_str(),
                info->why.c_str());

    // The one-time HBM3 calibration, before any system is built.
    const Clock::time_point t0 = Clock::now();
    cachedCalibration();
    const double calibration = since(t0);

    Checker checker(workload, static_cast<std::uint64_t>(seed),
                    loadExpected(PERFBENCH_EXPECTED));
    const std::vector<Metric> metrics =
        trace == 0
            ? endToEnd(*info, static_cast<std::uint64_t>(seed), seconds,
                       checker)
            : perLayer(*info, static_cast<std::uint64_t>(seed), seconds,
                       calibration, checker);

    for (const Metric &m : metrics)
        std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("cells: %lld attempted, %lld failed\n",
                checker.attempted(), checker.failed());

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": "
                "%lld, \"metrics\": {",
                checker.failed() == 0 ? "true" : "false",
                checker.attempted(), checker.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
