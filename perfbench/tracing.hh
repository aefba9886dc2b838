/**
 * @file
 * Outside-in host-time tracing of the simulator's layers.
 *
 * The simulator carries no spans of its own, so the benchmark
 * measures each layer at its public boundary: forwarding wrappers,
 * registered under benchmark-only registry ids, time every call
 * into a serving system's executeStage, a routing policy's route,
 * an eviction policy's victim and the run's observer callbacks.
 * The wrappers forward every virtual of the interface they stand
 * in for, draw no random numbers and change no argument, so a
 * traced run's simulated outputs equal the untraced run's (the
 * transparency test pins that on every workload).
 *
 * Spans nest through one stack: a span's self time is its duration
 * minus the spans opened inside it, so the per-layer self times
 * plus the root span's self time add up to the root's wall time.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "sim/engine.hh"

namespace perfbench
{

/** The layers a span can belong to. */
enum class Layer
{
    Driver,    //!< the whole run() call: batcher, fleet interleaving
    StageExec, //!< ServingSystem::executeStage
    Route,     //!< RoutingPolicy::route
    Victim,    //!< EvictionPolicy::victim
    Observers, //!< SimObserver / FleetObserver callbacks
    Count
};

/** Display name of @p layer in the span file. */
const char *layerName(Layer layer);

/** One closed span, as written to the span file. */
struct SpanRecord
{
    Layer layer = Layer::Driver;
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1: a root span
    int cell = -1;
    std::int64_t startNs = 0; //!< relative to the tracer's origin
    std::int64_t endNs = 0;
};

/** Per-layer totals over every span closed so far. */
struct LayerTotals
{
    std::int64_t calls = 0;
    double totalS = 0.0; //!< sum of span durations
    double selfS = 0.0;  //!< durations minus nested spans
};

/**
 * Collects spans in memory. Totals accumulate over every span; the
 * full records are kept only while capture is on, so a long run
 * can write one representative cell without growing without bound.
 */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer() : origin_(Clock::now()) {}

    void begin(Layer layer);
    void end();

    /** Cell index stamped on the spans that follow. */
    void setCell(int cell) { cell_ = cell; }

    /** Keep full span records while @p on. */
    void setCapture(bool on) { capture_ = on; }

    const LayerTotals &totals(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

    const std::vector<SpanRecord> &records() const { return records_; }

    /** Zero every total (records are kept). */
    void resetTotals() { totals_ = {}; }

    /**
     * MoE work a traced stage handed the system: @p tokens routed
     * through each of @p layers MoE layers. Replayed through a
     * fresh ExpertSelector after the run to price the draws.
     */
    void noteMoeStage(std::int64_t tokens, int layers);

    /** Stages noted since the last takeMoeStages(). */
    std::vector<std::int64_t> takeMoeStages();

    int moeLayers() const { return moeLayers_; }

  private:
    struct Open
    {
        Layer layer;
        std::int64_t id;
        std::int64_t parent;
        Clock::time_point start;
        double childS;
    };

    Clock::time_point origin_;
    std::vector<Open> stack_;
    std::array<LayerTotals, static_cast<std::size_t>(Layer::Count)>
        totals_{};
    std::vector<SpanRecord> records_;
    std::vector<std::int64_t> moeTokens_;
    std::int64_t nextId_ = 0;
    int moeLayers_ = 0;
    int cell_ = -1;
    bool capture_ = false;
};

/** The tracer the registered wrappers report to; null when off. */
Tracer *activeTracer();
void setActiveTracer(Tracer *tracer);

/** RAII span on the active tracer. */
class Span
{
  public:
    explicit Span(Layer layer) : tracer_(activeTracer())
    {
        tracer_->begin(layer);
    }
    ~Span() { tracer_->end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

/** Benchmark-only registry id wrapping registered id @p inner. */
std::string tracedId(const std::string &inner);

/**
 * Register traced wrappers: a serving system per id in @p systems,
 * a routing policy per id in @p routing and an eviction policy per
 * id in @p evictions, each under tracedId(inner). Idempotent.
 */
void registerTracedWrappers(const std::vector<std::string> &systems,
                            const std::vector<std::string> &routing,
                            const std::vector<std::string> &evictions);

/** Times every callback into @p inner under Layer::Observers. */
class TimedSimObserver : public duplex::SimObserver
{
  public:
    explicit TimedSimObserver(duplex::SimObserver &inner)
        : inner_(inner)
    {
    }

    void onSimBegin(const duplex::ServingSystem &system,
                    const duplex::SimConfig &config) override;
    void onStage(const duplex::StageObservation &obs) override;
    void onRequestRetired(const duplex::Request &request,
                          duplex::PicoSec now) override;
    void onSimEnd(const duplex::SimResult &result) override;

  private:
    duplex::SimObserver &inner_;
};

/** Times every callback into @p inner under Layer::Observers. */
class TimedFleetObserver : public duplex::FleetObserver
{
  public:
    explicit TimedFleetObserver(duplex::FleetObserver &inner)
        : inner_(inner)
    {
    }

    void onFleetBegin(const duplex::FleetConfig &config) override;
    void onInstanceUp(int instance, duplex::PicoSec now) override;
    void onRequestRouted(int instance, const duplex::Request &request,
                         duplex::PicoSec now) override;
    void onStage(int instance,
                 const duplex::StageObservation &obs) override;
    void onRequestRetired(int instance, const duplex::Request &request,
                          duplex::PicoSec now) override;
    void onScaleEvent(const duplex::ScaleEvent &event) override;
    void onFault(int instance, const duplex::FaultEvent &event,
                 duplex::PicoSec now) override;
    void onRetry(int instance, const duplex::Request &request,
                 int attempt, bool dropped,
                 duplex::PicoSec at) override;
    void onFleetEnd(const duplex::FleetResult &result) override;

  private:
    duplex::FleetObserver &inner_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
