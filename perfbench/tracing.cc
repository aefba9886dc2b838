#include "tracing.hh"

#include <memory>
#include <utility>

#include "common/log.hh"
#include "kvcache/prefix_cache.hh"
#include "sim/registry.hh"

using namespace duplex;

namespace perfbench
{

namespace
{

Tracer *gActiveTracer = nullptr;

/** A registered serving system, with every executeStage timed. */
class TracedSystem : public ServingSystem
{
  public:
    TracedSystem(std::unique_ptr<ServingSystem> inner, int moe_layers)
        : inner_(std::move(inner)), moeLayers_(moe_layers)
    {
    }

    StageResult executeStage(const StageShape &stage) override
    {
        if (moeLayers_ > 0) {
            const std::int64_t tokens =
                stage.aggregates().totalTokens();
            if (tokens > 0)
                activeTracer()->noteMoeStage(tokens, moeLayers_);
        }
        Span span(Layer::StageExec);
        return inner_->executeStage(stage);
    }

    KvBudget kvBudget() const override { return inner_->kvBudget(); }

    std::int64_t maxKvTokens() const override
    {
        return inner_->maxKvTokens();
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

    bool needsExactStageView() const override
    {
        return inner_->needsExactStageView();
    }

    std::optional<SimResult>
    runCustomLoop(const SimConfig &config,
                  SimObserver &observer) override
    {
        return inner_->runCustomLoop(config, observer);
    }

  private:
    std::unique_ptr<ServingSystem> inner_;
    int moeLayers_;
};

/** A registered routing policy, with every route timed. */
class TracedRouting : public RoutingPolicy
{
  public:
    explicit TracedRouting(std::unique_ptr<RoutingPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    int route(const Request &request,
              const std::vector<InstanceStatus> &instances) override
    {
        Span span(Layer::Route);
        return inner_->route(request, instances);
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

  private:
    std::unique_ptr<RoutingPolicy> inner_;
};

/** A registered eviction policy, with every victim call timed. */
class TracedEviction : public EvictionPolicy
{
  public:
    explicit TracedEviction(std::unique_ptr<EvictionPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::int64_t
    victim(const std::vector<EvictionCandidate> &candidates) override
    {
        Span span(Layer::Victim);
        return inner_->victim(candidates);
    }

    const std::string &name() const override { return inner_->name(); }

    std::string describe() const override
    {
        return inner_->describe();
    }

  private:
    std::unique_ptr<EvictionPolicy> inner_;
};

} // namespace

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Driver:
        return "driver";
      case Layer::StageExec:
        return "stage_exec";
      case Layer::Route:
        return "fleet.route";
      case Layer::Victim:
        return "kvcache.victim";
      case Layer::Observers:
        return "observers";
      case Layer::Count:
        break;
    }
    return "?";
}

void
Tracer::begin(Layer layer)
{
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().id;
    stack_.push_back({layer, nextId_++, parent, Clock::now(), 0.0});
}

void
Tracer::end()
{
    const Clock::time_point now = Clock::now();
    panicIf(stack_.empty(), "Tracer::end without an open span");
    const Open open = stack_.back();
    stack_.pop_back();
    const double dur =
        std::chrono::duration<double>(now - open.start).count();
    LayerTotals &t = totals_[static_cast<std::size_t>(open.layer)];
    ++t.calls;
    t.totalS += dur;
    t.selfS += dur - open.childS;
    if (!stack_.empty())
        stack_.back().childS += dur;
    if (capture_) {
        const auto ns = [this](Clock::time_point p) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       p - origin_)
                .count();
        };
        records_.push_back({open.layer, open.id, open.parent, cell_,
                            ns(open.start), ns(now)});
    }
}

void
Tracer::noteMoeStage(std::int64_t tokens, int layers)
{
    moeLayers_ = layers;
    moeTokens_.push_back(tokens);
}

std::vector<std::int64_t>
Tracer::takeMoeStages()
{
    return std::exchange(moeTokens_, {});
}

Tracer *
activeTracer()
{
    panicIf(gActiveTracer == nullptr,
            "perfbench: traced wrapper called with no active tracer");
    return gActiveTracer;
}

void
setActiveTracer(Tracer *tracer)
{
    gActiveTracer = tracer;
}

std::string
tracedId(const std::string &inner)
{
    return "perfbench.traced." + inner;
}

void
registerTracedWrappers(const std::vector<std::string> &systems,
                       const std::vector<std::string> &routing,
                       const std::vector<std::string> &evictions)
{
    SystemRegistry &sys = SystemRegistry::instance();
    for (const std::string &id : systems) {
        if (sys.contains(tracedId(id)))
            continue;
        registerServingSystem(
            tracedId(id), sys.displayName(id),
            "benchmark timing wrapper around " + id,
            [id](const ModelConfig &model, const SystemOptions &opts) {
                return std::make_unique<TracedSystem>(
                    makeSystem(id, model, opts), model.numMoeLayers());
            });
    }
    for (const std::string &id : routing) {
        if (RoutingPolicyRegistry::instance().contains(tracedId(id)))
            continue;
        registerRoutingPolicy(
            tracedId(id), "benchmark timing wrapper around " + id,
            [id] {
                return std::make_unique<TracedRouting>(
                    makeRoutingPolicy(id));
            });
    }
    for (const std::string &id : evictions) {
        if (EvictionPolicyRegistry::instance().contains(tracedId(id)))
            continue;
        registerEvictionPolicy(
            tracedId(id), "benchmark timing wrapper around " + id,
            [id] {
                return std::make_unique<TracedEviction>(
                    makeEvictionPolicy(id));
            });
    }
}

void
TimedSimObserver::onSimBegin(const ServingSystem &system,
                             const SimConfig &config)
{
    Span span(Layer::Observers);
    inner_.onSimBegin(system, config);
}

void
TimedSimObserver::onStage(const StageObservation &obs)
{
    Span span(Layer::Observers);
    inner_.onStage(obs);
}

void
TimedSimObserver::onRequestRetired(const Request &request, PicoSec now)
{
    Span span(Layer::Observers);
    inner_.onRequestRetired(request, now);
}

void
TimedSimObserver::onSimEnd(const SimResult &result)
{
    Span span(Layer::Observers);
    inner_.onSimEnd(result);
}

void
TimedFleetObserver::onFleetBegin(const FleetConfig &config)
{
    Span span(Layer::Observers);
    inner_.onFleetBegin(config);
}

void
TimedFleetObserver::onInstanceUp(int instance, PicoSec now)
{
    Span span(Layer::Observers);
    inner_.onInstanceUp(instance, now);
}

void
TimedFleetObserver::onRequestRouted(int instance,
                                    const Request &request,
                                    PicoSec now)
{
    Span span(Layer::Observers);
    inner_.onRequestRouted(instance, request, now);
}

void
TimedFleetObserver::onStage(int instance, const StageObservation &obs)
{
    Span span(Layer::Observers);
    inner_.onStage(instance, obs);
}

void
TimedFleetObserver::onRequestRetired(int instance,
                                     const Request &request,
                                     PicoSec now)
{
    Span span(Layer::Observers);
    inner_.onRequestRetired(instance, request, now);
}

void
TimedFleetObserver::onScaleEvent(const ScaleEvent &event)
{
    Span span(Layer::Observers);
    inner_.onScaleEvent(event);
}

void
TimedFleetObserver::onFault(int instance, const FaultEvent &event,
                            PicoSec now)
{
    Span span(Layer::Observers);
    inner_.onFault(instance, event, now);
}

void
TimedFleetObserver::onRetry(int instance, const Request &request,
                            int attempt, bool dropped, PicoSec at)
{
    Span span(Layer::Observers);
    inner_.onRetry(instance, request, attempt, dropped, at);
}

void
TimedFleetObserver::onFleetEnd(const FleetResult &result)
{
    Span span(Layer::Observers);
    inner_.onFleetEnd(result);
}

} // namespace perfbench
