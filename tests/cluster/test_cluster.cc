/**
 * @file
 * Cluster-level stage execution tests: time composition, breakdown
 * accounting, capacity budgets and the hetero strawman.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "sim/presets.hh"

namespace duplex
{
namespace
{

StageShape
decodeStage(int batch, std::int64_t ctx)
{
    StageShape s;
    for (int i = 0; i < batch; ++i)
        s.decodeContexts.push_back(ctx);
    return s;
}

StageShape
mixedStage(int batch, std::int64_t ctx, std::int64_t lin)
{
    StageShape s = decodeStage(batch, ctx);
    s.prefillLengths.push_back(lin);
    return s;
}

TEST(Cluster, EmptyStageFree)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage({});
    EXPECT_EQ(r.time, 0);
    EXPECT_DOUBLE_EQ(r.totalEnergyJ(), 0.0);
}

TEST(Cluster, DecodeStagePositiveEverything)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage(decodeStage(32, 2048));
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.slice(LayerClass::Fc).time, 0);
    EXPECT_GT(r.slice(LayerClass::AttentionDecode).time, 0);
    EXPECT_GT(r.slice(LayerClass::Moe).time, 0);
    EXPECT_GT(r.slice(LayerClass::Communication).time, 0);
    EXPECT_EQ(r.slice(LayerClass::AttentionPrefill).time, 0);
    EXPECT_GT(r.totalEnergyJ(), 0.0);
}

TEST(Cluster, MoeAndAttentionDominateGpuDecode)
{
    // The Fig. 4(a) observation: in decoding-only stages on GPUs,
    // MoE + attention take most of the time.
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult r = c.executeStage(decodeStage(64, 2048));
    const double moe_attn = psToMs(
        r.slice(LayerClass::Moe).time +
        r.slice(LayerClass::AttentionDecode).time);
    EXPECT_GT(moe_attn, 0.5 * psToMs(r.time));
}

TEST(Cluster, MixedStageAddsPrefillWork)
{
    Cluster c(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult dec = c.executeStage(decodeStage(32, 2048));
    Cluster c2(makeClusterConfig("gpu", mixtralConfig()));
    const StageResult mix =
        c2.executeStage(mixedStage(32, 2048, 2048));
    EXPECT_GT(mix.time, dec.time);
    EXPECT_GT(mix.slice(LayerClass::AttentionPrefill).time, 0);
}

TEST(Cluster, DuplexFasterThanGpuOnDecode)
{
    Cluster gpu(makeClusterConfig("gpu", mixtralConfig()));
    Cluster dup(
        makeClusterConfig("duplex", mixtralConfig()));
    const StageShape s = decodeStage(64, 2048);
    EXPECT_LT(dup.executeStage(s).time, gpu.executeStage(s).time);
}

TEST(Cluster, CoProcessingHelpsMixedStage)
{
    Cluster base(
        makeClusterConfig("duplex", mixtralConfig()));
    Cluster pe(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    const StageShape s = mixedStage(64, 2048, 2048);
    EXPECT_LE(pe.executeStage(s).time, base.executeStage(s).time);
}

TEST(Cluster, EtIncreasesExpertsOnLowEngine)
{
    Cluster pe(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    Cluster et(
        makeClusterConfig("duplex-pe-et", mixtralConfig()));
    const StageShape s = decodeStage(64, 1024);
    pe.executeStage(s);
    et.executeStage(s);
    // EP gives each device 2 experts; ET exposes all 8.
    EXPECT_LE(pe.lastExpertsOnLow(), 2);
    EXPECT_GT(et.lastExpertsOnLow(), 2);
}

TEST(Cluster, DeterministicForSameSeed)
{
    const auto cfg =
        makeClusterConfig("duplex-pe-et", glamConfig(), 42);
    Cluster a(cfg);
    Cluster b(cfg);
    const StageShape s = decodeStage(64, 1024);
    EXPECT_EQ(a.executeStage(s).time, b.executeStage(s).time);
}

TEST(Cluster, SeedChangesExpertDraw)
{
    Cluster a(
        makeClusterConfig("duplex-pe-et", glamConfig(), 1));
    Cluster b(
        makeClusterConfig("duplex-pe-et", glamConfig(), 2));
    const StageShape s = decodeStage(64, 1024);
    // Different gate draws almost surely differ in time.
    EXPECT_NE(a.executeStage(s).time, b.executeStage(s).time);
}

TEST(Cluster, KvBudgetFitsModels)
{
    for (const char *id : {"gpu", "duplex"}) {
        Cluster c(makeClusterConfig(id, mixtralConfig()));
        EXPECT_GT(c.maxKvTokens(), 100000);
    }
    Cluster g(makeClusterConfig("gpu", grok1Config()));
    EXPECT_GT(g.maxKvTokens(), 100000);
}

TEST(Cluster, TimeScalesWithLayers)
{
    ModelConfig small = mixtralConfig();
    small.numLayers = 8;
    auto cfg_small = makeClusterConfig("gpu", small);
    auto cfg_full =
        makeClusterConfig("gpu", mixtralConfig());
    Cluster a(cfg_small);
    Cluster b(cfg_full);
    const StageShape s = decodeStage(32, 1024);
    const double ratio =
        static_cast<double>(b.executeStage(s).time) /
        static_cast<double>(a.executeStage(s).time);
    EXPECT_GT(ratio, 3.4);
    EXPECT_LT(ratio, 4.6);
}

TEST(Cluster, EnergySumsAcrossDevices)
{
    // 2xGPU halves per-device work but doubles device count:
    // total energy stays in the same neighbourhood.
    Cluster one(makeClusterConfig("gpu", mixtralConfig()));
    Cluster two(
        makeClusterConfig("gpu-2x", mixtralConfig()));
    const StageShape s = decodeStage(64, 2048);
    const double j1 = one.executeStage(s).totalEnergyJ();
    const double j2 = two.executeStage(s).totalEnergyJ();
    EXPECT_NEAR(j2, j1, j1 * 0.25);
}

TEST(HeteroCluster, ExecutesAndSplitsClasses)
{
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    const StageResult r = h.executeStage(decodeStage(32, 2048));
    EXPECT_GT(r.time, 0);
    EXPECT_GT(r.slice(LayerClass::Moe).time, 0);
    EXPECT_GT(r.slice(LayerClass::Communication).time, 0);
}

TEST(HeteroCluster, KvCapacityBelowHomogeneous)
{
    // Fig. 5(c): the hetero system wastes capacity, shrinking the
    // maximum batch.
    Cluster gpu(makeClusterConfig("gpu", mixtralConfig()));
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    EXPECT_LT(h.maxKvTokens(), gpu.maxKvTokens());
}

TEST(HeteroCluster, MixedStageMoeSuffers)
{
    // The Section III-B pathology: mixed-stage MoE on weak PIM
    // compute hurts the hetero system vs Duplex.
    HeteroCluster h(makeHeteroConfig(mixtralConfig()));
    Cluster dup(
        makeClusterConfig("duplex-pe", mixtralConfig()));
    const StageShape s = mixedStage(32, 2048, 2048);
    EXPECT_GT(h.executeStage(s).time, dup.executeStage(s).time);
}

TEST(HeteroCluster, PimSidePricedWithPimEnergy)
{
    // Decode attention and the experts run on the PIM devices and
    // take their energy parameters; FC work stays on the GPUs.
    const HeteroConfig base = makeHeteroConfig(mixtralConfig());
    HeteroConfig scaled = base;
    scaled.pimSpec.energyParams.arrayPj *= 2.0;
    scaled.pimSpec.energyParams.logicPimFlopPj *= 2.0;
    HeteroCluster a(base);
    HeteroCluster b(scaled);
    const StageShape s = decodeStage(32, 2048);
    const StageResult ra = a.executeStage(s);
    const StageResult rb = b.executeStage(s);
    EXPECT_EQ(rb.time, ra.time);
    for (LayerClass cls :
         {LayerClass::Moe, LayerClass::AttentionDecode}) {
        EXPECT_GT(rb.slice(cls).energy.dramJ, ra.slice(cls).energy.dramJ);
        EXPECT_GT(rb.slice(cls).energy.computeJ,
                  ra.slice(cls).energy.computeJ);
    }
    EXPECT_EQ(rb.slice(LayerClass::Fc).energy.dramJ,
              ra.slice(LayerClass::Fc).energy.dramJ);
    EXPECT_EQ(rb.slice(LayerClass::Fc).energy.computeJ,
              ra.slice(LayerClass::Fc).energy.computeJ);
}

TEST(HeteroCluster, UnevenExpertSplitIsFatal)
{
    // Mixtral's 8 experts do not split over 3 PIM devices.
    HeteroConfig cfg = makeHeteroConfig(mixtralConfig());
    cfg.numPimDevices = 3;
    EXPECT_EXIT({ HeteroCluster h(cfg); },
                ::testing::ExitedWithCode(1), "split evenly");
    cfg = makeHeteroConfig(mixtralConfig());
    cfg.numGpus = 0;
    EXPECT_EXIT({ HeteroCluster h(cfg); },
                ::testing::ExitedWithCode(1), "at least one GPU");
}

} // namespace
} // namespace duplex
