#include "fleet/fleet.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "sim/registry.hh"
#include "workload/registry.hh"

namespace duplex
{

/**
 * Forwards one instance's engine callbacks to the fleet observers,
 * tagged with the instance id, and counts retirements into the
 * fleet's result. begin/end hooks are fleet-level
 * (onFleetBegin/onFleetEnd), so the SimObserver ones stay unused.
 */
class InstanceObserver : public SimObserver
{
  public:
    InstanceObserver(FleetDriver &fleet,
                     const std::vector<FleetObserver *> &observers,
                     int instance)
        : fleet_(fleet), observers_(observers), instance_(instance)
    {
    }

    void onStage(const StageObservation &obs) override
    {
        for (FleetObserver *o : observers_)
            o->onStage(instance_, obs);
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        ++fleet_.result_.requestsRetired;
        for (FleetObserver *o : observers_)
            o->onRequestRetired(instance_, request, now);
        // Retirement feedback into the shared stream, after the
        // observers (mirroring the engine loop's ordering): a
        // session workload releases its next turn here; a no-op
        // for every other source.
        if (fleet_.shared_ != nullptr)
            fleet_.shared_->notifyRetired(request, now);
    }

  private:
    FleetDriver &fleet_;
    const std::vector<FleetObserver *> &observers_;
    int instance_;
};

/** One serving instance: system + steppable loop + router-side
 *  accounting of routed-but-unadmitted KV commitments. */
struct FleetDriver::Instance
{
    int id = -1;
    bool accepting = true;
    bool retired = false;

    // --- fault state (inert unless the fleet injects faults) ---
    InstanceHealth health = InstanceHealth::Healthy;
    bool down = false;       //!< crashed out, awaiting repair
    PicoSec downSince = -1;  //!< when the open downtime began
    PicoSec rejoinAt = -1;   //!< repair time; -1 = never rejoins
    PicoSec degradeEnd = -1; //!< straggler window close; -1 = none
    FaultPlan plan;          //!< this instance's fault timeline

    /** Failure domain the fault topology places the instance in;
     *  -1 without a domain map. */
    int domain = -1;

    /**
     * Proactively draining: a degrade window crossed the drain
     * threshold, so the instance stopped admitting (its queued
     * requests were migrated) until the window closes or a crash
     * supersedes it. Distinct from !accepting, which is the
     * autoscaler's permanent drain-before-retire.
     */
    bool faultDrain = false;

    /** Correlated domain crashes fanned out to this instance but
     *  not yet due at its clock (time-ordered). */
    std::deque<FaultEvent> domainPending;

    std::unique_ptr<ServingSystem> system;
    std::unique_ptr<InstanceObserver> observer;
    std::unique_ptr<DriverLoop> loop;

    /**
     * Lifetime KV (inputLen + outputLen) of each routed request the
     * batcher has not yet admitted, in routing order. Admission is
     * FIFO, so after each step the entries whose requests were
     * admitted are exactly the front (queue length delta) ones.
     */
    std::deque<std::int64_t> queuedKv;
    std::int64_t queuedKvSum = 0;

    /** Busy-index set holding (indexedAt, id); null when idle. */
    std::set<ClockKey> *indexedIn = nullptr;
    PicoSec indexedAt = 0;

    /** Up, admitting and not retired: the router may pick it.
     *  Crashed and proactively draining instances are ejected. */
    bool routable() const
    {
        return !retired && accepting && !down && !faultDrain;
    }

    /** Drop the front entries the batcher admitted since last sync. */
    void syncQueuedKv()
    {
        while (queuedKv.size() > loop->queueDepth()) {
            queuedKvSum -= queuedKv.front();
            queuedKv.pop_front();
        }
    }
};

void
ScaleSpec::validate() const
{
    fatalIf(minInstances < 1, "ScaleSpec: minInstances must be >= 1");
    fatalIf(maxInstances < minInstances,
            "ScaleSpec: maxInstances must be >= minInstances");
    fatalIf(windowSec <= 0.0, "ScaleSpec: windowSec must be > 0");
    fatalIf(cooldownSec < 0.0, "ScaleSpec: negative cooldownSec");
}

FleetDriver::FleetDriver(FleetConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.instances < 1,
            "FleetDriver: need at least one instance");
}

FleetDriver::~FleetDriver() = default;

void
FleetDriver::addObserver(FleetObserver *observer)
{
    panicIf(observer == nullptr, "null FleetObserver attached");
    observers_.push_back(observer);
}

/** Re-file @p inst in the busy index (see fleet.hh for when): an
 *  up instance with work sits in steppable_, or in capped_ once its
 *  stage budget is spent; every other instance sits in neither. */
void
FleetDriver::reindex(Instance &inst)
{
    if (inst.indexedIn != nullptr)
        inst.indexedIn->erase({inst.indexedAt, inst.id});
    inst.indexedIn = nullptr;
    if (inst.retired || inst.down || inst.loop->idle())
        return;
    inst.indexedIn =
        inst.loop->stageCapped() ? &capped_ : &steppable_;
    inst.indexedAt = inst.loop->now();
    inst.indexedIn->insert({inst.indexedAt, inst.id});
}

/** The one per-route pass: march idle live instances to @p at when
 *  @p march (so the chosen one admits at the arrival, as the bare
 *  engine would) and refill statuses_ in id order. */
void
FleetDriver::fillStatuses(PicoSec at, bool march)
{
    statuses_.clear();
    for (const auto &inst : instances_) {
        if (inst->retired || inst->down)
            continue;
        if (march && inst->loop->idle())
            inst->loop->advanceTo(at);
        if (!inst->routable())
            continue;
        InstanceStatus s;
        s.id = inst->id;
        s.domain = inst->domain;
        s.health = inst->health;
        s.queueDepth = inst->loop->queueDepth();
        s.activeCount = inst->loop->activeCount();
        s.maxKvTokens = inst->loop->maxKvTokens();
        s.kvHeadroom = s.maxKvTokens -
                       inst->loop->activeLifetimeKv() -
                       inst->queuedKvSum;
        s.clock = inst->loop->now();
        statuses_.push_back(s);
    }
}

FleetDriver::Instance &
FleetDriver::spawn(PicoSec now)
{
    auto inst = std::make_unique<Instance>();
    inst->id = static_cast<int>(instances_.size());
    SystemOptions opts;
    // Independent RNG stream per instance; instance 0 matches the
    // bare engine's seed, the golden-equivalence anchor.
    opts.seed = config_.sim.seed +
                static_cast<std::uint64_t>(inst->id);
    inst->system =
        makeSystem(config_.sim.systemName, config_.sim.model, opts);
    inst->observer = std::make_unique<InstanceObserver>(
        *this, observers_, inst->id);
    // Push-fed arrivals: the router delivers requests as their
    // arrival times come due; the loop's clock starts at the
    // provisioning time (0 for the initial fleet).
    inst->loop = std::make_unique<DriverLoop>(
        config_.sim, *inst->system, *inst->observer,
        ArrivalQueue(closedLoop_), now);
    // The instance's fault timeline, on its dedicated RNG stream;
    // default-constructed (inert) when faults are disabled so the
    // fault-free fleet never touches the subsystem.
    if (faultsEnabled_)
        inst->plan =
            FaultPlan(config_.faults, inst->id, config_.sim.seed);
    // The domain map is topology, not a fault process: filled
    // whenever domains are configured so domain-aware routing works
    // even before any fault fires.
    if (config_.faults.hasDomains()) {
        inst->domain = config_.faults.domainFor(inst->id);
        ++result_.perDomain[static_cast<std::size_t>(inst->domain)]
              .instances;
    }
    result_.perInstanceDowntime.push_back(0);
    result_.peakInstances = std::max(result_.peakInstances, ++live_);
    ++accepting_;
    Instance &ref = *inst;
    instances_.push_back(std::move(inst));
    reindex(ref);
    for (FleetObserver *o : observers_)
        o->onInstanceUp(ref.id, now);
    return ref;
}

double
FleetDriver::observedQps(PicoSec now)
{
    const PicoSec window = secToPs(config_.scaling.windowSec);
    while (!arrivalWindow_.empty() &&
           arrivalWindow_.front() + window < now)
        arrivalWindow_.pop_front();
    return static_cast<double>(arrivalWindow_.size()) /
           config_.scaling.windowSec;
}

double
FleetDriver::observedUnavailability(PicoSec now) const
{
    if (now <= 0 || instances_.empty())
        return 0.0;
    PicoSec down = result_.totalDowntime;
    for (const auto &inst : instances_) {
        // Open downtime interval: count what has accrued so far.
        if (inst->down && inst->downSince >= 0 &&
            inst->downSince < now)
            down += now - inst->downSince;
    }
    const double frac =
        static_cast<double>(down) /
        (static_cast<double>(now) *
         static_cast<double>(instances_.size()));
    // Cap so one long outage cannot demand unbounded spare
    // capacity (effective capacity never drops below 10%).
    return std::min(frac, 0.9);
}

void
FleetDriver::maybeScale(PicoSec now)
{
    const ScaleSpec &spec = config_.scaling;
    const double qps = observedQps(now);
    if (now - lastScaleTime_ < secToPs(spec.cooldownSec))
        return;
    const int accepting = accepting_;
    // Availability-aware mode: thresholds act on effective capacity
    // accepting x (1 - observed unavailability) — the MTTR/MTBF
    // share the fleet is losing gets provisioned as spare headroom.
    // Exactly `accepting` when faults are off (unavailability 0),
    // so the mode is inert on a fault-free fleet.
    double capacity = static_cast<double>(accepting);
    if (spec.availabilityAware && faultsEnabled_)
        capacity = static_cast<double>(accepting) *
                   (1.0 - observedUnavailability(now));
    ScaleEvent event;
    event.time = now;
    event.observedQps = qps;
    if (qps > spec.upQpsPerInstance * capacity &&
        accepting < spec.maxInstances) {
        Instance &inst = spawn(now);
        event.kind = ScaleEvent::Kind::Up;
        event.instance = inst.id;
        event.acceptingAfter = accepting + 1;
        ++result_.scaleUps;
    } else if (qps < spec.downQpsPerInstance * capacity &&
               accepting > spec.minInstances) {
        // Drain the highest-id accepting instance: stop routing to
        // it; it finishes its queued and active requests, then
        // retires (the drain-retires-nothing-in-flight guarantee).
        Instance *victim = nullptr;
        for (const auto &inst : instances_)
            if (!inst->retired && inst->accepting)
                victim = inst.get();
        victim->accepting = false;
        --accepting_;
        drained_.insert(victim->id);
        event.kind = ScaleEvent::Kind::Drain;
        event.instance = victim->id;
        event.acceptingAfter = accepting - 1;
        ++result_.scaleDowns;
    } else {
        return;
    }
    lastScaleTime_ = now;
    result_.scaleEvents.push_back(event);
    for (FleetObserver *o : observers_)
        o->onScaleEvent(event);
}

void
FleetDriver::retireInstance(Instance &inst)
{
    panicIf(!inst.loop->idle(),
            "retiring a fleet instance with in-flight requests");
    inst.retired = true;
    --live_;
    reindex(inst);
    // A draining instance can crash out (its work already evicted
    // and re-routed); retirement closes the downtime interval.
    if (inst.down)
        closeDowntime(inst, inst.loop->now());
    ScaleEvent event;
    event.kind = ScaleEvent::Kind::Retire;
    event.time = inst.loop->now();
    event.instance = inst.id;
    event.acceptingAfter = accepting_;
    result_.scaleEvents.push_back(event);
    for (FleetObserver *o : observers_)
        o->onScaleEvent(event);
}

/**
 * Fire every fault due by simulated time @p at (0: by each
 * instance's own clock) across the fleet, before any routing or
 * stepping decision reads fleet state — faults strike at stage
 * boundaries, and the last step may have carried an instance's
 * clock past a scheduled strike. Domain plans pump first: their
 * draws are interleaving-free, so the furthest clock is a safe
 * horizon, and each popped crash fans out to the domain's live
 * members, which apply it at their own stage boundary. Returns
 * true when anything changed (a crash changes who is busy and may
 * have queued earlier retries). A no-op without faults.
 */
bool
FleetDriver::pumpFaults(PicoSec at)
{
    if (!faultsEnabled_)
        return false;
    if (!domainPlans_.empty()) {
        PicoSec horizon = at;
        for (const auto &inst : instances_)
            if (!inst->retired)
                horizon = std::max(horizon, inst->loop->now());
        for (FaultPlan &plan : domainPlans_)
            while (plan.pending() && plan.nextAt() <= horizon) {
                const FaultEvent e = plan.pop();
                for (auto &inst : instances_)
                    if (!inst->retired && inst->domain == e.domain)
                        inst->domainPending.push_back(e);
            }
    }
    bool changed = false;
    for (auto &inst : instances_)
        if (!inst->retired)
            changed = serviceFaults(
                          *inst, std::max(at, inst->loop->now())) ||
                      changed;
    return changed;
}

/**
 * Fire everything due on @p inst up to simulated time @p horizon,
 * in chronological order: a pending rejoin, a degrade-window close
 * and the scheduled faults interleave (a rejoin can be followed by
 * the next crash in the same call). Fault events that strike while
 * the instance is down are consumed and dropped — a dead machine
 * cannot fail twice. Returns true when anything changed, so callers
 * re-evaluate routing state (a crash changes who is busy and may
 * have queued retries).
 */
bool
FleetDriver::serviceFaults(Instance &inst, PicoSec horizon)
{
    // @p t when it is set (>= 0) and due by the horizon, else -1.
    const auto due = [horizon](PicoSec t) {
        return t >= 0 && t <= horizon ? t : -1;
    };
    bool fired = false;
    for (;;) {
        const PicoSec rejoin = due(inst.down ? inst.rejoinAt : -1);
        const PicoSec degradeEnd =
            due(inst.down ? -1 : inst.degradeEnd);
        const PicoSec fault =
            due(inst.plan.pending() ? inst.plan.nextAt() : -1);
        const PicoSec domain =
            due(inst.domainPending.empty()
                    ? -1
                    : inst.domainPending.front().at);
        PicoSec next = -1;
        for (PicoSec t : {rejoin, degradeEnd, fault, domain})
            if (t >= 0 && (next < 0 || t < next))
                next = t;
        if (next < 0)
            return fired;
        fired = true;
        if (next == rejoin) {
            rejoinInstance(inst, rejoin);
        } else if (next == degradeEnd) {
            inst.loop->setTimeScale(1.0);
            inst.health = InstanceHealth::Healthy;
            inst.degradeEnd = -1;
            // The window that drove a proactive drain closed: the
            // instance admits again.
            inst.faultDrain = false;
        } else if (next == fault) {
            const FaultEvent e = inst.plan.pop();
            if (inst.down || inst.retired)
                continue;
            if (e.kind == FaultKind::Crash)
                applyCrash(inst, e);
            else
                applyDegrade(inst, e);
        } else {
            // A correlated domain crash fanned out to this member.
            const FaultEvent e = inst.domainPending.front();
            inst.domainPending.pop_front();
            if (inst.down || inst.retired)
                continue;
            applyCrash(inst, e);
        }
    }
}

void
FleetDriver::applyCrash(Instance &inst, const FaultEvent &event)
{
    // Fail-stop at the stage boundary: when a stage ran past the
    // scheduled strike, the crash takes effect at the instance's
    // clock (a stage is atomic; nothing fails mid-matmul).
    const PicoSec now = std::max(event.at, inst.loop->now());
    std::vector<Request> lost;
    inst.loop->evictAll(lost);
    // The KV prefix cache died with the instance's HBM: flush it
    // (ledger-closed — the bytes count as evictions) so post-rejoin
    // lookups all miss instead of reporting phantom warm hits.
    inst.loop->flushPrefixCache();
    inst.queuedKv.clear();
    inst.queuedKvSum = 0;
    // A crash supersedes any straggler window in progress — and the
    // proactive drain that window may have triggered.
    if (inst.degradeEnd >= 0) {
        inst.loop->setTimeScale(1.0);
        inst.degradeEnd = -1;
    }
    inst.faultDrain = false;
    inst.health = InstanceHealth::Healthy;
    inst.down = true;
    reindex(inst);
    inst.downSince = now;
    inst.rejoinAt = event.duration < 0
                        ? -1
                        : std::max(now, event.at + event.duration);
    ++result_.crashes;
    if (inst.domain >= 0)
        ++result_.perDomain[static_cast<std::size_t>(inst.domain)]
              .crashes;
    recordFault(inst, event, now);
    for (Request &r : lost)
        scheduleRetry(std::move(r), inst.id, now);
}

void
FleetDriver::applyDegrade(Instance &inst, const FaultEvent &event)
{
    const PicoSec now = std::max(event.at, inst.loop->now());
    inst.health = InstanceHealth::Degraded;
    inst.loop->setTimeScale(event.factor);
    // The window closes at its scheduled end even when a stage ran
    // past the start; a window fully consumed mid-stage is cleared
    // by the next serviceFaults pass without scaling anything.
    inst.degradeEnd = event.at + event.duration;
    ++result_.degradeWindows;
    recordFault(inst, event, now);
    // Proactive drain: a straggler this heavy is served around, not
    // through — stop admitting and hand the queued requests back to
    // the router instead of waiting for a crash to retry them.
    if (config_.faults.drainFactorThreshold > 0.0 &&
        event.factor >= config_.faults.drainFactorThreshold)
        applyDrain(inst, event, now);
}

void
FleetDriver::applyDrain(Instance &inst, const FaultEvent &event,
                        PicoSec now)
{
    inst.faultDrain = true;
    std::vector<Request> queued;
    inst.loop->evictQueued(queued);
    reindex(inst);
    inst.queuedKv.clear();
    inst.queuedKvSum = 0;
    ++result_.drains;
    FaultEvent rec = event;
    rec.kind = FaultKind::Drain;
    recordFault(inst, rec, now);
    // Migration, not retry: the queued requests were never
    // admitted, so no work is lost and no retry budget is spent.
    // They re-enter the router through the pending heap at the
    // drain time (original queue order preserved via seq), stamped
    // with that time as their arrival — every per-instance queue
    // requires nondecreasing arrivals, and the router hands them to
    // a *different* instance whose queue may already sit past the
    // original stamp.
    for (Request &r : queued) {
        ++result_.requestsMigrated;
        const PicoSec at = std::max(now, r.arrival);
        r.arrival = at;
        pushPending(std::move(r), at);
    }
}

void
FleetDriver::rejoinInstance(Instance &inst, PicoSec at)
{
    panicIf(!inst.down, "rejoining an instance that is not down");
    closeDowntime(inst, at);
    // Empty batch, clock resumed at the repair time (no-op when the
    // crash-frozen clock already sits past it).
    inst.loop->advanceTo(at);
    reindex(inst);
    FaultEvent rec;
    rec.kind = FaultKind::Rejoin;
    recordFault(inst, rec, at);
}

/** Append @p event to the timeline as applied to @p inst at its
 *  effective time @p now, and tell the observers. */
void
FleetDriver::recordFault(const Instance &inst, FaultEvent event,
                         PicoSec now)
{
    event.instance = inst.id;
    event.at = now;
    result_.faultEvents.push_back(event);
    for (FleetObserver *o : observers_)
        o->onFault(inst.id, event, now);
}

/** Close @p inst's open downtime interval at @p end and bring it
 *  back up in the books (fleet, instance and domain totals). */
void
FleetDriver::closeDowntime(Instance &inst, PicoSec end)
{
    const PicoSec d = std::max<PicoSec>(0, end - inst.downSince);
    result_.totalDowntime += d;
    result_.perInstanceDowntime[static_cast<std::size_t>(inst.id)] +=
        d;
    if (inst.domain >= 0)
        result_.perDomain[static_cast<std::size_t>(inst.domain)]
            .downtime += d;
    inst.down = false;
    inst.downSince = -1;
    inst.rejoinAt = -1;
}

/** Queue @p request to re-enter the router at @p at. */
void
FleetDriver::pushPending(Request request, PicoSec at)
{
    retries_.push_back({at, retrySeq_++, std::move(request)});
    std::push_heap(retries_.begin(), retries_.end(),
                   PendingRetry::later);
}

void
FleetDriver::scheduleRetry(Request request, int instance,
                           PicoSec now)
{
    ++result_.requestsLost;
    result_.lostWorkTokens += request.generated;
    const int dom =
        instances_[static_cast<std::size_t>(instance)]->domain;
    if (dom >= 0)
        ++result_.perDomain[static_cast<std::size_t>(dom)].lost;
    const int attempt = request.retries + 1;
    if (request.retries >= config_.retry.maxAttempts) {
        ++result_.requestsDropped;
        for (FleetObserver *o : observers_)
            o->onRetry(instance, request, attempt, true, now);
        return;
    }
    // The crashed KV is gone (chunked-prefill progress included).
    request.restartFromPrefill();
    const PicoSec at = now + config_.retry.backoffFor(attempt);
    request.arrival = at;
    ++result_.retriesScheduled;
    for (FleetObserver *o : observers_)
        o->onRetry(instance, request, attempt, false, at);
    pushPending(std::move(request), at);
}

/**
 * When every accepting instance is down, the fleet only makes
 * progress by waiting out the earliest repair: rejoin that instance
 * at its repair time (lowest id on ties) and route there. Returns
 * false when no down accepting instance ever rejoins.
 */
bool
FleetDriver::forceRejoinEarliest()
{
    Instance *best = nullptr;
    for (const auto &inst : instances_)
        if (!inst->retired && inst->accepting && inst->down &&
            inst->rejoinAt >= 0 &&
            (best == nullptr || inst->rejoinAt < best->rejoinAt))
            best = inst.get();
    if (best == nullptr)
        return false;
    rejoinInstance(*best, best->rejoinAt);
    return true;
}

/**
 * When nothing is routable and nothing is down-with-a-repair, the
 * blockers are proactive drains: close the earliest draining
 * instance's degrade window (firing everything chronologically due
 * by then) so routing can resume — the drain-window mirror of
 * forceRejoinEarliest. Returns false when no instance is draining.
 */
bool
FleetDriver::forceDrainEndEarliest()
{
    Instance *best = nullptr;
    for (const auto &inst : instances_)
        if (!inst->retired && inst->accepting &&
            inst->faultDrain && inst->degradeEnd >= 0 &&
            (best == nullptr ||
             inst->degradeEnd < best->degradeEnd))
            best = inst.get();
    if (best == nullptr)
        return false;
    const PicoSec end = best->degradeEnd;
    serviceFaults(*best, end);
    // An idle drained instance's clock may sit before the window
    // close; it becomes routable AT the close, like a rejoin.
    if (!best->down && best->loop->idle())
        best->loop->advanceTo(end);
    return true;
}

FleetResult
FleetDriver::run()
{
    panicIf(ran_, "FleetDriver::run called twice");
    ran_ = true;

    policy_ = makeRoutingPolicy(config_.policy);
    int initial = config_.instances;
    if (config_.scaling.enabled) {
        config_.scaling.validate();
        initial = std::clamp(initial, config_.scaling.minInstances,
                             config_.scaling.maxInstances);
    }

    for (FleetObserver *o : observers_)
        o->onFleetBegin(config_);

    ArrivalQueue shared(
        makeWorkload(config_.sim.workloadIdOrDefault(),
                     config_.sim.workload),
        config_.sim.numRequests);
    // Instance queues mirror the shared stream's discipline (trace
    // and bursty sources are open loop whatever qps says).
    closedLoop_ = shared.closedLoop();
    // Expose the shared queue (a run() local) to the per-instance
    // observers for retirement feedback; cleared before the fold so
    // the dangling window is exactly the stepping loop.
    shared_ = &shared;

    // Fault injection: decided before the first spawn so every
    // instance (initial and autoscaled) gets its fault timeline.
    faultsEnabled_ = config_.faults.enabled();
    if (faultsEnabled_) {
        config_.retry.validate();
        config_.faults.validate();
    }
    // Failure-domain topology: per-domain books whenever a domain
    // map exists (domain-aware routing works without any fault
    // process), correlated-crash plans only under faults.
    const int numDomains = config_.faults.domainCount();
    result_.perDomain.resize(static_cast<std::size_t>(numDomains));
    for (int d = 0; d < numDomains; ++d) {
        result_.perDomain[static_cast<std::size_t>(d)].domain = d;
        if (faultsEnabled_)
            domainPlans_.push_back(FaultPlan::forDomain(
                config_.faults, d, config_.sim.seed));
    }

    for (int i = 0; i < initial; ++i)
        spawn(0);
    // Autoscaling reacts to observed arrival timestamps; a closed
    // loop has none (arrival = admission), so scaling requires an
    // open-loop workload.
    fatalIf(config_.scaling.enabled && shared.closedLoop(),
            "fleet autoscaling needs an open-loop workload "
            "(qps > 0)");

    for (;;) {
        // Retire drained instances the moment they go idle (id
        // order), so they stop gating routing.
        std::erase_if(drained_, [this](int id) {
            Instance &inst = *instances_[id];
            if (inst.loop->idle())
                retireInstance(inst);
            return inst.retired;
        });

        // Faults due at each instance's own clock strike before any
        // routing or stepping decision reads fleet state.
        pumpFaults(0);

        // Route every arrival no BUSY instance is still behind: a
        // busy instance's state at the arrival time is not yet
        // known; an idle one just marches forward (idleAdvance,
        // fleet-wide). Closed loop: arrivals carry no timestamps, so
        // the whole stream routes up front at the minimum live clock
        // and queued-KV accounting spreads it. Crash retries merge
        // with the shared stream in timestamp order, gated like
        // open-loop arrivals; down instances neither gate nor route.
        for (;;) {
            const bool haveShared = !shared.empty();
            if (!haveShared && retries_.empty())
                break;
            if (faultsEnabled_ &&
                std::ranges::none_of(instances_, [](const auto &i) {
                    return i->routable();
                })) {
                // The whole fleet is down (or draining): wait out
                // the earliest repair — or, when nothing is down
                // with a repair scheduled, close the earliest
                // proactive-drain window — then route there.
                if (!forceRejoinEarliest())
                    fatalIf(!forceDrainEndEarliest(),
                            "fleet: every instance is down or "
                            "draining with no rejoin scheduled and "
                            "requests still pending");
                continue;
            }
            // Retries carry real timestamps even under a closed
            // loop; the timestamp-less closed-loop stream routes
            // first there, open loop merges by earliest time
            // (shared stream wins ties — it was in line first).
            bool fromRetry = !haveShared;
            if (haveShared && !retries_.empty() &&
                !shared.closedLoop())
                fromRetry =
                    retries_.front().at < shared.front().arrival;
            const bool timed = fromRetry || !shared.closedLoop();
            PicoSec at = fromRetry ? retries_.front().at
                                   : shared.front().arrival;
            // The busy-min gate: stage-capped instances hold it too.
            const auto behind = [at](const std::set<ClockKey> &busy) {
                return !busy.empty() && busy.begin()->first < at;
            };
            if (timed && (behind(steppable_) || behind(capped_)))
                break;
            if (!timed) {
                at = std::numeric_limits<PicoSec>::max();
                for (const auto &inst : instances_)
                    if (!inst->retired && !inst->down)
                        at = std::min(at, inst->loop->now());
            }
            // Fire anything due by the routing time (rejoins
            // included), then re-evaluate.
            if (pumpFaults(at))
                continue;
            Request r;
            if (fromRetry) {
                std::pop_heap(retries_.begin(), retries_.end(),
                              PendingRetry::later);
                r = std::move(retries_.back().req);
                retries_.pop_back();
            } else {
                r = shared.pop(at);
            }
            if (config_.scaling.enabled) {
                arrivalWindow_.push_back(at);
                maybeScale(at);
            }
            fillStatuses(at, timed);
            panicIf(statuses_.empty(),
                    "fleet has no accepting instance to route to");
            const int target = policy_->route(r, statuses_);
            panicIf(target < 0 || target >= std::ssize(instances_) ||
                        !instances_[target]->routable(),
                    "routing policy '" + config_.policy +
                        "' picked an unroutable instance");
            Instance &inst = *instances_[target];
            const std::int64_t kv = r.inputLen + r.outputLen;
            for (FleetObserver *o : observers_)
                o->onRequestRouted(target, r, at);
            inst.loop->pushArrival(std::move(r));
            reindex(inst);
            inst.queuedKv.push_back(kv);
            inst.queuedKvSum += kv;
            if (inst.domain >= 0)
                ++result_.perDomain[inst.domain].routed;
            ++result_.requestsRouted;
        }

        // Step the busy instance furthest behind in simulated time
        // (lowest id on ties) — the deterministic interleaving.
        if (!steppable_.empty()) {
            Instance &next = *instances_[static_cast<std::size_t>(
                steppable_.begin()->second)];
            next.loop->step();
            next.syncQueuedKv();
            reindex(next);
            continue;
        }

        // Every live instance is idle or stage-capped. A capped
        // instance with work still queued ends the run (engine
        // stage-cap semantics); otherwise all are idle — march them
        // to the next arrival (or pending retry) and route it.
        if ((shared.empty() && retries_.empty()) || !capped_.empty())
            break;
        PicoSec t = std::numeric_limits<PicoSec>::max();
        if (!shared.empty())
            t = shared.front().arrival;
        if (!retries_.empty())
            t = std::min(t, retries_.front().at);
        for (auto &inst : instances_)
            if (!inst->retired && !inst->down)
                inst->loop->advanceTo(t);
    }

    shared_ = nullptr;

    // Fold per-instance results in id order (retired instances'
    // loops are finished here too — their state froze at
    // retirement).
    PicoSec makespan = 0;
    for (const auto &inst : instances_)
        makespan = std::max(makespan, inst->loop->now());
    // Close downtime intervals still open at the end of the run: an
    // instance whose repair lands inside the makespan counts down
    // to its repair, one still dead at the end counts to the
    // makespan (availability is measured over the run window).
    for (auto &inst : instances_)
        if (inst->down) {
            const PicoSec r = inst->rejoinAt;
            closeDowntime(*inst, r >= 0 && r < makespan ? r : makespan);
        }
    result_.perInstance.reserve(instances_.size());
    for (auto &inst : instances_) {
        SimResult sr = inst->loop->finish();
        result_.metrics.totalTokens += sr.metrics.totalTokens;
        result_.metrics.decodingOnlyStages +=
            sr.metrics.decodingOnlyStages;
        result_.metrics.mixedStages += sr.metrics.mixedStages;
        result_.totals += sr.totals;
        result_.generatedTokens += sr.generatedTokens;
        result_.peakBatch = std::max(result_.peakBatch, sr.peakBatch);
        result_.prefixCache.merge(sr.prefixCache);
        result_.perInstance.push_back(std::move(sr));
    }
    // Merge latency samples into buffers sized once: an exact-fit
    // buffer grown instance by instance is copied on every merge.
    using M = ServingMetrics;
    for (auto field : {&M::tbtMs, &M::t2ftMs, &M::e2eMs}) {
        std::size_t n = 0;
        for (const SimResult &sr : result_.perInstance)
            n += (sr.metrics.*field).count();
        (result_.metrics.*field).reserve(n);
        for (const SimResult &sr : result_.perInstance)
            (result_.metrics.*field).merge(sr.metrics.*field);
    }
    result_.metrics.elapsed = makespan;
    // Time-based per-domain availability over the run window.
    for (DomainAvailability &da : result_.perDomain)
        if (makespan > 0 && da.instances > 0) {
            const double frac =
                static_cast<double>(da.downtime) /
                (static_cast<double>(makespan) *
                 static_cast<double>(da.instances));
            da.availability = frac >= 1.0 ? 0.0 : 1.0 - frac;
        }

    for (FleetObserver *o : observers_)
        o->onFleetEnd(result_);
    return std::move(result_);
}

// ------------------------------------------------ FleetUtilization

FleetUtilization::InstanceStats &
FleetUtilization::at(int instance)
{
    while (static_cast<int>(stats_.size()) <= instance) {
        InstanceStats s;
        s.id = static_cast<int>(stats_.size());
        stats_.push_back(s);
    }
    return stats_[static_cast<std::size_t>(instance)];
}

void
FleetUtilization::onInstanceUp(int instance, PicoSec)
{
    at(instance);
}

void
FleetUtilization::onRequestRouted(int instance, const Request &,
                                  PicoSec)
{
    ++at(instance).routed;
}

void
FleetUtilization::onStage(int instance, const StageObservation &obs)
{
    InstanceStats &s = at(instance);
    ++s.stages;
    // The clock's advance, straggler scaling included: a stage of a
    // 4x-degraded instance keeps it busy four times as long.
    s.busyTime += obs.end - obs.start;
}

void
FleetUtilization::onRequestRetired(int instance, const Request &,
                                   PicoSec)
{
    ++at(instance).retired;
}

} // namespace duplex
