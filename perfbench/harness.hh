/**
 * @file
 * The benchmark's workloads and cells.
 *
 * A workload is one traffic mix; a cell is one independent
 * simulation run of it, with a seed derived from the workload seed.
 * Each workload owns a fixed set of cells (a pass). Every cell
 * execution is checked: its simulated-outcome fingerprint must
 * equal the committed one (default seed), the fingerprint of the
 * cell's earlier executions (every seed), and the accounting
 * invariants the simulator promises must hold. A cell that fails
 * any check counts as failed.
 *
 * The harness reaches the simulator only through its public entry
 * points: SimulationEngine::run, FleetDriver::run and the
 * registries.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.hh"

namespace perfbench
{

/** The seed whose fingerprints expected.txt commits. */
constexpr std::uint64_t kDefaultSeed = 1;

/** One benchmark workload: its id, why it was chosen, its cells. */
struct WorkloadInfo
{
    std::string name;
    std::string why;
    int cells; //!< cells in one pass
};

/** Every workload, in report order. */
const std::vector<WorkloadInfo> &workloads();

/** The workload named @p name, or nullptr. */
const WorkloadInfo *findWorkload(const std::string &name);

/** Simulator seed of cell @p cell under workload seed @p seed. */
std::uint64_t cellSeed(std::uint64_t seed, int cell);

/**
 * The simulated outcome of one cell. Speed-ups must keep it
 * bit-identical, so doubles are compared exactly.
 */
struct Fingerprint
{
    std::int64_t requests = 0;
    std::int64_t retired = 0;
    std::int64_t dropped = 0;
    std::int64_t tokens = 0;
    std::int64_t stages = 0;
    std::int64_t elapsedPs = 0;
    double ttftP50 = 0.0;
    double ttftP99 = 0.0;
    double tbtP50 = 0.0;
    double tbtP99 = 0.0;
    std::int64_t cacheHits = 0;
    std::int64_t evictions = 0;
    std::int64_t crashes = 0;
    std::int64_t retries = 0;
    std::int64_t migrated = 0;

    /** "key=value ..." with doubles printed round-trip exact. */
    std::string str() const;

    bool operator==(const Fingerprint &) const = default;
};

/** What one execution of a cell produced. */
struct CellRun
{
    Fingerprint fp;

    /** Broken accounting invariants; empty when all hold. */
    std::vector<std::string> violations;

    double setupS = 0.0; //!< run() entry to the first stage
    double runS = 0.0;   //!< first stage to run() return

    // Layer counters (deterministic).
    std::int64_t routes = 0;
    std::int64_t cacheLookups = 0;
    std::int64_t promptTokens = 0; //!< over retired requests
    std::int64_t cachedTokens = 0; //!< served warm, retired requests

    // Traced executions only.
    bool traced = false;
    std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)>
        layers{};
    double expertsSampleS = 0.0; //!< replayed MoE draws
    std::int64_t expertTokens = 0; //!< tokens x MoE layers drawn
};

/**
 * Execute cell @p cell of @p workload under workload seed @p seed.
 * With a @p tracer, the run goes through the timing wrappers and
 * the cell's layer totals are filled in.
 */
CellRun runCell(const std::string &workload, std::uint64_t seed,
                int cell, Tracer *tracer);

/**
 * Set-up probe: build cell 0 of @p workload, run it to its first
 * simulated stage, print the host seconds from @p origin_ns to that
 * stage on stdout and end the process with status 0. @p origin_ns is
 * a steady_clock (CLOCK_MONOTONIC) time in nanoseconds that the
 * parent took just before it spawned this process, so the probe
 * covers process start, static initialization, the one-time HBM3
 * calibration and the run's construction.
 */
[[noreturn]] void probeSetup(const std::string &workload,
                             std::uint64_t seed, std::int64_t origin_ns);

/**
 * Host seconds to drain cell @p cell's request stream standalone,
 * and the requests drained. Returns false (leaving both untouched)
 * when the workload's source needs retirement feedback, so its
 * stream cannot be drawn apart from a run.
 */
bool drawStream(const std::string &workload, std::uint64_t seed,
                int cell, double &seconds, std::int64_t &requests);

/** Committed fingerprints: "workload/cell" -> Fingerprint::str(). */
std::map<std::string, std::string> loadExpected(const std::string &path);

/** The expected-fingerprint key of a cell. */
std::string expectedKey(const std::string &workload, int cell);

/** Machine context: one "key=value" per entry. */
std::vector<std::pair<std::string, std::string>> machineContext();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
