/**
 * @file
 * SimulationEngine tests: observer callback ordering and counts,
 * the shipped drop-in observers, a golden test pinning the
 * engine's SimResult to the values the seed simulator produced on
 * the Mixtral preset (gpu and duplex systems), and an exact
 * time-and-energy golden for every registered system.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/observers.hh"
#include "sim/registry.hh"

namespace duplex
{
namespace
{

SimConfig
goldenConfig(const std::string &system)
{
    SimConfig c;
    c.systemName = system;
    c.model = mixtralConfig();
    c.maxBatch = 16;
    c.workload.meanInputLen = 256;
    c.workload.meanOutputLen = 64;
    c.numRequests = 48;
    c.warmupRequests = 8;
    c.maxStages = 600;
    return c;
}

/** Records the full callback sequence for ordering assertions. */
class RecordingObserver : public SimObserver
{
  public:
    enum class Event
    {
        Begin,
        Stage,
        Retire,
        End
    };

    void onSimBegin(const ServingSystem &system,
                    const SimConfig &config) override
    {
        (void)config;
        systemName = system.name();
        events.push_back(Event::Begin);
    }

    void onStage(const StageObservation &obs) override
    {
        events.push_back(Event::Stage);
        stageIndexes.push_back(obs.index);
        EXPECT_GE(obs.end, obs.start);
        EXPECT_GT(obs.kvTokens, 0);
        lastStageEnd = obs.end;
    }

    void onRequestRetired(const Request &request,
                          PicoSec now) override
    {
        events.push_back(Event::Retire);
        EXPECT_TRUE(request.done());
        EXPECT_LE(request.finished, now);
        ++retired;
    }

    void onSimEnd(const SimResult &result) override
    {
        events.push_back(Event::End);
        finalTokens = result.generatedTokens;
    }

    std::vector<Event> events;
    std::vector<std::int64_t> stageIndexes;
    std::string systemName;
    std::int64_t retired = 0;
    std::int64_t finalTokens = 0;
    PicoSec lastStageEnd = 0;
};

std::int64_t
countEvents(const RecordingObserver &rec,
            RecordingObserver::Event kind)
{
    std::int64_t n = 0;
    for (auto e : rec.events)
        if (e == kind)
            ++n;
    return n;
}

TEST(Engine, GoldenGpuMatchesSeedRunSimulation)
{
    // Values captured from the seed implementation's driver loop
    // on this exact configuration; the engine must
    // reproduce them bit-for-bit (time/token integers) and to
    // rounding (energy).
    const SimResult r =
        SimulationEngine(goldenConfig("gpu")).run();
    EXPECT_EQ(r.metrics.elapsed, 1688760707856LL);
    EXPECT_EQ(r.metrics.totalTokens, 2521);
    EXPECT_EQ(r.generatedTokens, 3137);
    EXPECT_EQ(r.peakBatch, 16);
    EXPECT_EQ(r.metrics.decodingOnlyStages, 210);
    EXPECT_EQ(r.metrics.mixedStages, 27);
    EXPECT_NEAR(r.totals.totalEnergyJ(), 769.36158265872291,
                1e-6 * 769.36158265872291);
    EXPECT_NEAR(r.metrics.tbtMs.percentile(50), 8.563581246,
                1e-6);
}

TEST(Engine, GoldenDuplexMatchesSeedRunSimulation)
{
    const SimResult r =
        SimulationEngine(goldenConfig("duplex")).run();
    EXPECT_EQ(r.metrics.elapsed, 800495559533LL);
    EXPECT_EQ(r.metrics.totalTokens, 2521);
    EXPECT_EQ(r.generatedTokens, 3137);
    EXPECT_EQ(r.peakBatch, 16);
    EXPECT_EQ(r.metrics.decodingOnlyStages, 210);
    EXPECT_EQ(r.metrics.mixedStages, 27);
    EXPECT_NEAR(r.totals.totalEnergyJ(), 551.21667480047654,
                1e-6 * 551.21667480047654);
    EXPECT_NEAR(r.metrics.tbtMs.percentile(50), 3.361203755,
                1e-6);
}

/**
 * totals.time and every byClass slice's time and energy of
 * goldenConfig on one system, pinned exactly (hexfloats). A
 * reordered or re-derived energy sum changes the last bits, which
 * the 1e-6 tolerances above would let through.
 */
struct ExactGolden
{
    const char *system;
    PicoSec time;
    std::array<ClassSlice, kNumLayerClasses> byClass;
};

const ExactGolden kExactGoldens[] = {
    {"bank-pim",
     696967013358LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2527169664LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {9727144224LL, 0x1.b27c5f4ac7985p+0, 0x1.ce3e31cacd52ep-2},
       {437071871319LL, 0x1.521c3367af02p+8, 0x1.67fd0ab9a457fp+7},
       {136028178624LL, 0x0p+0, 0x0p+0}}}},
    {"bankgroup-pim",
     808862995759LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2527169664LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {10738779360LL, 0x1.d860855eb24d4p+0, 0x1.8541d91691f5p-2},
       {548074937944LL, 0x1.7f0a54f35b667p+8, 0x1.63dce6edb3c26p+7},
       {136028178624LL, 0x0p+0, 0x0p+0}}}},
    {"duplex",
     974063212666LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2356097568LL, 0x1.041db79b6e5ap-2, 0x1.541f65e3fafabp-2},
       {10738779360LL, 0x1.121468c343dc5p+1, 0x1.107ae4c2ffc4fp-3},
       {718985080355LL, 0x1.798cd523c5409p+8, 0x1.07c76a7020883p+7},
       {129283209472LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-pe",
     960895683771LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2527169664LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {10738779360LL, 0x1.121468c343dc5p+1, 0x1.107ae4c2ffc4fp-3},
       {706852595108LL, 0x1.72d61ebcdb8dp+8, 0x1.004beb02b601bp+7},
       {129283209472LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-pe-et",
     808862995759LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2527169664LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {10738779360LL, 0x1.121468c343dc5p+1, 0x1.107ae4c2ffc4fp-3},
       {548074937944LL, 0x1.a0fc75b241707p+8, 0x1.feb9ccef13fd3p+6},
       {136028178624LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-split",
     1301057392142LL,
     {{{190517002787LL, 0x1.6c6e0b2945e72p+4, 0x1.0eb16af7c6d2dp+4},
       {2366339264LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d699p-2},
       {13861558656LL, 0x1.121468c343dc2p+1, 0x1.107ae4c2ffc55p-3},
       {1034270236363LL, 0x1.afdf3efea81e5p+8, 0x1.043f2752dbafcp+7},
       {60042255072LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-split-2p6d",
     813127194123LL,
     {{{116590693397LL, 0x1.7780c5754a5cdp+4, 0x1.0eb16af7c6d25p+4},
       {2366339264LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d699p-2},
       {9868519040LL, 0x1.121466902ee4dp+1, 0x1.107ae4c2ffc51p-3},
       {489486059286LL, 0x1.b7a7b717c1ccep+8, 0x1.04390c5afd7c4p+7},
       {194815583136LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-split-6p2d",
     1182416899867LL,
     {{{174479934901LL, 0x1.7095117d56a06p+4, 0x1.0eb16af7c6d21p+4},
       {1300779744LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d69ap-2},
       {13957558560LL, 0x1.121468c343dc2p+1, 0x1.107ae4c2ffc52p-3},
       {911394344742LL, 0x1.ada9a3ae57bbp+8, 0x1.0440b0d641ee3p+7},
       {81284281920LL, 0x0p+0, 0x0p+0}}}},
    {"duplex-split-contended",
     1311153127117LL,
     {{{194602604285LL, 0x1.74bc17f8e794bp+4, 0x1.0eb16af7c6d24p+4},
       {2366339264LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d699p-2},
       {14053558496LL, 0x1.121468c343dbfp+1, 0x1.107ae4c2ffc54p-3},
       {1039281970192LL, 0x1.b17ab73bbee39p+8, 0x1.043e8c22a4f18p+7},
       {60848654880LL, 0x0p+0, 0x0p+0}}}},
    {"gpu",
     2049757016744LL,
     {{{112700045911LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2527169664LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {25253934144LL, 0x1.cf892726d967p+1, 0x1.8541d91691f5p-3},
       {1779992657553LL, 0x1.255b8cb65fd13p+9, 0x1.168e21a67ff06p+7},
       {129283209472LL, 0x0p+0, 0x0p+0}}}},
    {"gpu-2x",
     1278917707113LL,
     {{{79576027415LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {2127584864LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {20178967104LL, 0x1.cf892726d967p+1, 0x1.8541d91691f5p-3},
       {918654475890LL, 0x1.255b8cb65fd13p+9, 0x1.168e21a67ff06p+7},
       {258380651840LL, 0x0p+0, 0x0p+0}}}},
    {"hetero",
     2590175282897LL,
     {{{178948097327LL, 0x1.5ff8f7f1d3633p+4, 0x1.0eb16af7c6d1ep+4},
       {3326339168LL, 0x1.23fa2b5a6725bp-2, 0x1.6c1cadf69d698p-2},
       {13925558592LL, 0x1.121468c343dc5p+1, 0x1.107ae4c2ffc4fp-3},
       {2336766948482LL, 0x1.5af7ce1ce9244p+8, 0x1.85fe2a103f7efp+6},
       {57208339328LL, 0x0p+0, 0x0p+0}}}},
};

TEST(Engine, GoldenTimeAndEnergyExactOnEveryRegisteredSystem)
{
    std::vector<std::string> pinned;
    for (const ExactGolden &g : kExactGoldens) {
        SCOPED_TRACE(g.system);
        pinned.push_back(g.system);
        const SimResult r = SimulationEngine(goldenConfig(g.system)).run();
        EXPECT_EQ(r.totals.time, g.time);
        for (int k = 0; k < kNumLayerClasses; ++k) {
            const ClassSlice &got = r.totals.byClass[k];
            const ClassSlice &want = g.byClass[k];
            EXPECT_EQ(got.time, want.time) << "class " << k;
            EXPECT_EQ(got.energy.dramJ, want.energy.dramJ)
                << "class " << k;
            EXPECT_EQ(got.energy.computeJ, want.energy.computeJ)
                << "class " << k;
        }
    }
    // Every registered system is pinned (registeredSystems is
    // sorted, as is the table).
    EXPECT_EQ(pinned, registeredSystems());
}

TEST(Engine, ObserverCallbackOrderingAndCounts)
{
    SimulationEngine engine(goldenConfig("gpu"));
    RecordingObserver rec;
    engine.addObserver(&rec);
    const SimResult r = engine.run();

    ASSERT_GE(rec.events.size(), 3u);
    EXPECT_EQ(rec.events.front(), RecordingObserver::Event::Begin);
    EXPECT_EQ(rec.events.back(), RecordingObserver::Event::End);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Begin), 1);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::End), 1);

    // One onStage per executed stage, indexed 0..N-1 in order.
    const std::int64_t stages = r.metrics.decodingOnlyStages +
                                r.metrics.mixedStages;
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Stage),
              stages);
    ASSERT_FALSE(rec.stageIndexes.empty());
    for (std::size_t i = 0; i < rec.stageIndexes.size(); ++i)
        EXPECT_EQ(rec.stageIndexes[i],
                  static_cast<std::int64_t>(i));

    // Every request retires exactly once (closed loop, all done).
    EXPECT_EQ(rec.retired, 48);
    EXPECT_EQ(countEvents(rec, RecordingObserver::Event::Retire),
              48);

    // Retires only ever follow a stage, never precede the first.
    bool seen_stage = false;
    for (auto e : rec.events) {
        if (e == RecordingObserver::Event::Stage)
            seen_stage = true;
        if (e == RecordingObserver::Event::Retire) {
            EXPECT_TRUE(seen_stage);
        }
    }

    EXPECT_EQ(rec.systemName, "GPU");
    EXPECT_EQ(rec.finalTokens, r.generatedTokens);
}

TEST(Engine, ObserversFireOnCustomLoopSystems)
{
    // The split system runs its own driver loop but must feed the
    // same observer stream.
    SimConfig c = goldenConfig("duplex-split");
    c.maxStages = 20000;
    SimulationEngine engine(c);
    RecordingObserver rec;
    engine.addObserver(&rec);
    const SimResult r = engine.run();

    EXPECT_EQ(rec.events.front(), RecordingObserver::Event::Begin);
    EXPECT_EQ(rec.events.back(), RecordingObserver::Event::End);
    EXPECT_GT(countEvents(rec, RecordingObserver::Event::Stage), 0);
    EXPECT_EQ(rec.retired, 48);
    EXPECT_EQ(rec.finalTokens, r.generatedTokens);
}

TEST(Engine, MultipleObserversAllReceiveCallbacks)
{
    SimulationEngine engine(goldenConfig("duplex"));
    RecordingObserver a;
    RecordingObserver b;
    engine.addObserver(&a);
    engine.addObserver(&b);
    engine.run();
    EXPECT_EQ(a.events.size(), b.events.size());
    EXPECT_GT(a.events.size(), 0u);
}

TEST(Engine, DropInObserversCollectMetrics)
{
    SimulationEngine engine(goldenConfig("gpu"));
    StageTimeHistogram hist;
    KvOccupancyTrace kv;
    engine.addObserver(&hist);
    engine.addObserver(&kv);
    const SimResult r = engine.run();

    const std::int64_t stages = r.metrics.decodingOnlyStages +
                                r.metrics.mixedStages;
    EXPECT_EQ(hist.stageMs().count(),
              static_cast<std::size_t>(stages));
    EXPECT_GT(hist.stageMs().percentile(99), 0.0);
    EXPECT_EQ(kv.points().size(),
              static_cast<std::size_t>(stages));
    EXPECT_GT(kv.peakKvTokens(), 0);
    // Occupancy never exceeds what the system can hold.
    const std::unique_ptr<ServingSystem> system =
        makeSystem("gpu", mixtralConfig());
    EXPECT_LE(kv.peakKvTokens(), system->maxKvTokens());
}

TEST(Engine, ExpertRoutingCountsHistogramMatchesRouting)
{
    // Every stage routes totalTokens x topK assignments per MoE
    // layer; the observer's run histogram must account for exactly
    // that, across every expert.
    SimConfig c = goldenConfig("duplex");
    SimulationEngine engine(c);
    ExpertRoutingCounts routing;

    class TokenCounter : public SimObserver
    {
      public:
        std::int64_t stageTokens = 0;
        void onStage(const StageObservation &obs) override
        {
            stageTokens += obs.shape.totalTokens();
        }
    } counter;

    engine.addObserver(&routing);
    engine.addObserver(&counter);
    engine.run();

    const ModelConfig m = c.model;
    ASSERT_EQ(routing.tokensPerExpert().size(),
              static_cast<std::size_t>(m.numExperts));
    EXPECT_EQ(routing.totalRouted(),
              counter.stageTokens * m.topK * m.numMoeLayers());
    for (auto tokens : routing.tokensPerExpert())
        EXPECT_GT(tokens, 0);
    // The paper-default uniform gate cannot be pathologically skewed
    // over a run this long.
    EXPECT_GE(routing.skew(), 1.0);
    EXPECT_LT(routing.skew(), 2.0);
}

TEST(Engine, ExpertRoutingCountsEmptyForDenseModels)
{
    SimConfig c = goldenConfig("gpu");
    c.model = llama3Config();
    c.numRequests = 8;
    c.maxStages = 120;
    SimulationEngine engine(c);
    ExpertRoutingCounts routing;
    engine.addObserver(&routing);
    engine.run();
    EXPECT_TRUE(routing.tokensPerExpert().empty());
    EXPECT_EQ(routing.totalRouted(), 0);
}

TEST(Engine, SloAttainmentBoundsAndGoodput)
{
    // A vacuous SLO admits every request; an impossible one admits
    // none — and goodput follows the attaining set.
    SimConfig c = goldenConfig("gpu");
    SimulationEngine engine(c);
    SloAttainment lenient({1e9, 1e9});
    SloAttainment impossible({0.0, 0.0});
    engine.addObserver(&lenient);
    engine.addObserver(&impossible);
    const SimResult r = engine.run();

    EXPECT_EQ(lenient.totalRequests(), 48);
    EXPECT_EQ(lenient.attainedRequests(), 48);
    EXPECT_DOUBLE_EQ(lenient.attainment(), 1.0);
    EXPECT_DOUBLE_EQ(lenient.t2ftAttainment(), 1.0);
    EXPECT_DOUBLE_EQ(lenient.tbtAttainment(), 1.0);
    // Every token came from an attaining request, so goodput over
    // the retire span is within a stage of raw throughput.
    EXPECT_GT(lenient.goodputTokensPerSec(), 0.0);

    EXPECT_EQ(impossible.totalRequests(), 48);
    EXPECT_EQ(impossible.attainedRequests(), 0);
    EXPECT_DOUBLE_EQ(impossible.attainment(), 0.0);
    EXPECT_DOUBLE_EQ(impossible.goodputTokensPerSec(), 0.0);

    // The aggregate ServingMetrics view agrees at the extremes.
    EXPECT_DOUBLE_EQ(r.metrics.t2ftAttainment({1e9, 1e9}), 1.0);
    EXPECT_DOUBLE_EQ(r.metrics.tbtAttainment({0.0, 0.0}), 0.0);
}

TEST(Engine, SloAttainmentMonotoneInTheObjective)
{
    // Loosening an SLO can only admit more requests, and meeting
    // both objectives can only be rarer than meeting either one.
    SimConfig c = goldenConfig("duplex");
    SimulationEngine engine(c);
    // Thresholds near the median TBT split the population.
    SloAttainment strict({100.0, 3.0});
    SloAttainment loose({200.0, 5.0});
    engine.addObserver(&strict);
    engine.addObserver(&loose);
    engine.run();
    EXPECT_EQ(strict.totalRequests(), loose.totalRequests());
    EXPECT_GT(strict.totalRequests(), 0);
    EXPECT_LE(strict.t2ftAttainment(), loose.t2ftAttainment());
    EXPECT_LE(strict.tbtAttainment(), loose.tbtAttainment());
    EXPECT_LE(strict.attainment(), loose.attainment());
    for (const SloAttainment *a : {&strict, &loose}) {
        EXPECT_LE(a->attainment(), a->t2ftAttainment());
        EXPECT_LE(a->attainment(), a->tbtAttainment());
        EXPECT_LE(a->attainedRequests(), a->totalRequests());
    }
}

TEST(Engine, OpenLoopIdleAdvanceJumpsExactlyToArrival)
{
    // With Poisson arrivals and an idle batcher, the clock must
    // land exactly on the next arrival — the one-picosecond bump is
    // reserved for stalls where the clock would not otherwise move.
    SimConfig c = goldenConfig("gpu");
    c.workload.qps = 2.0; // open loop
    c.numRequests = 6;
    c.maxStages = 4000;

    // Reproduce the generator stream to learn the arrival times.
    RequestGenerator gen(c.workload);
    const std::vector<Request> requests = gen.take(c.numRequests);
    ASSERT_GT(requests.front().arrival, 0);

    class FirstStage : public SimObserver
    {
      public:
        PicoSec firstStart = -1;
        void onStage(const StageObservation &obs) override
        {
            if (firstStart < 0)
                firstStart = obs.start;
        }
    } first;

    SimulationEngine engine(c);
    engine.addObserver(&first);
    engine.run();
    EXPECT_EQ(first.firstStart, requests.front().arrival);
}

TEST(Engine, RunOnExistingInstanceMatchesRegistryRun)
{
    const SimConfig c = goldenConfig("duplex");
    const SimResult via_registry = SimulationEngine(c).run();
    SystemOptions opts;
    opts.seed = c.seed;
    const std::unique_ptr<ServingSystem> system =
        makeSystem("duplex", c.model, opts);
    const SimResult via_instance =
        SimulationEngine(c).run(*system);
    EXPECT_EQ(via_registry.metrics.elapsed,
              via_instance.metrics.elapsed);
    EXPECT_EQ(via_registry.metrics.totalTokens,
              via_instance.metrics.totalTokens);
}

} // namespace
} // namespace duplex
