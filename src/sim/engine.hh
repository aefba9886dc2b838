/**
 * @file
 * The simulation engine: one continuous-batching driver loop for
 * every registered serving system, with an observer API.
 *
 * The engine owns the one scheduler loop every system shares: it
 * forms stages with the ContinuousBatcher, executes them on a
 * ServingSystem, applies the warm-up-window accounting and collects
 * ServingMetrics. Systems with a
 * non-standard lifecycle (SplitSystem) plug in their own loop via
 * ServingSystem::runCustomLoop and still feed the same observers.
 *
 * Observers (SimObserver) get per-stage and per-request-retire
 * callbacks plus begin/end hooks, so new metrics — stage-time
 * histograms, KV-occupancy traces, expert-routing counts — are
 * drop-in observers (see sim/observers.hh) instead of new driver
 * loops.
 */

#ifndef DUPLEX_SIM_ENGINE_HH
#define DUPLEX_SIM_ENGINE_HH

#include <memory>
#include <vector>

#include "sim/experiment.hh"
#include "sim/serving_system.hh"

namespace duplex
{

/**
 * One device group's slice of a stage, reported by disaggregated
 * systems (prefill/decode split): which group ran the stage, how
 * many devices it spans, how long they computed and how long
 * admission stalled on KV-transfer link waits ahead of the stage.
 */
struct GroupObservation
{
    const char *group = "";    //!< group id ("prefill", "decode")
    int devices = 0;           //!< devices in the group
    PicoSec busy = 0;          //!< group compute time in this stage
    PicoSec linkWait = 0;      //!< admission stall on KV transfers
};

/**
 * What the engine saw while executing one stage.
 *
 * @warning shape, result and groups are borrowed from the driver
 * loop and are valid only for the duration of the onStage callback.
 * An observer that needs them later must copy the fields it uses
 * (as KvOccupancyTrace does), never the whole observation.
 */
struct StageObservation
{
    std::int64_t index;        //!< 0-based stage number
    PicoSec start;             //!< clock when the stage was formed
    PicoSec end;               //!< clock after the stage executed
    const StageShape &shape;   //!< batched stage composition
    const StageResult &result; //!< time/energy breakdown
    std::int64_t kvTokens;     //!< context tokens resident in KV

    /**
     * Per-device-group breakdown, when the driving system is
     * disaggregated; nullptr from the engine's homogeneous loop.
     * Use groupBreakdown() for uniform access.
     */
    const std::vector<GroupObservation> *groups = nullptr;

    /** The per-group slices of this stage (empty if homogeneous). */
    const std::vector<GroupObservation> &groupBreakdown() const
    {
        static const std::vector<GroupObservation> kNone;
        return groups != nullptr ? *groups : kNone;
    }
};

/**
 * Callbacks fired by the engine (and by custom system loops).
 * Default implementations do nothing; override what you need.
 *
 * Ordering guarantee per run: one onSimBegin, then for each stage
 * one onStage followed by the onRequestRetired calls of requests
 * that stage retired, then one onSimEnd.
 */
class SimObserver
{
  public:
    virtual ~SimObserver() = default;

    virtual void onSimBegin(const ServingSystem &system,
                            const SimConfig &config)
    {
        (void)system;
        (void)config;
    }

    virtual void onStage(const StageObservation &obs) { (void)obs; }

    virtual void onRequestRetired(const Request &request,
                                  PicoSec now)
    {
        (void)request;
        (void)now;
    }

    virtual void onSimEnd(const SimResult &result) { (void)result; }
};

/** Drives one simulation, fanning callbacks out to observers. */
class SimulationEngine
{
  public:
    explicit SimulationEngine(SimConfig config);

    const SimConfig &config() const { return config_; }

    /** Attach a non-owning observer; call before run(). */
    void addObserver(SimObserver *observer);

    /** Build the configured system from the registry and run. */
    SimResult run();

    /** Run the engine loop on an existing system instance. */
    SimResult run(ServingSystem &system);

  private:
    SimConfig config_;
    std::vector<SimObserver *> observers_;

    SimResult runBatcherLoop(ServingSystem &system,
                             SimObserver &observer);
};

} // namespace duplex

#endif // DUPLEX_SIM_ENGINE_HH
