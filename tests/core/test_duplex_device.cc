/**
 * @file
 * Duplex hybrid-device tests: Op/B-driven engine selection and
 * co-processing behaviour (Sections IV-D, V-B).
 */

#include <gtest/gtest.h>

#include "../device/moe_reference.hh"
#include "core/duplex_device.hh"
#include "workload/experts.hh"

namespace duplex
{
namespace
{

class DuplexDeviceTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();
    LayerCosts costs{mixtralConfig()};

    HybridDeviceSpec
    spec(bool co)
    {
        return duplexDeviceSpec(timing, cal, co);
    }
};

TEST_F(DuplexDeviceTest, SpecHasBothEngines)
{
    const auto s = spec(false);
    EXPECT_TRUE(s.hasLowEngine);
    EXPECT_EQ(s.memCapacity, 80ull * kGiB); // same as the GPU
    EXPECT_GT(s.low.memBps, s.xpu.memBps);
    EXPECT_LT(s.low.peakFlops, s.xpu.peakFlops);
}

TEST_F(DuplexDeviceTest, HighOpbStaysOnXpu)
{
    Device dev(spec(false));
    Device gpu(h100DeviceSpec(timing, cal));
    const OpCost fc = costs.qkv(64);
    EXPECT_EQ(dev.runHighOpb(fc).time, gpu.runHighOpb(fc).time);
}

TEST_F(DuplexDeviceTest, DecodeAttentionPicksLowEngine)
{
    Device dev(spec(false));
    Device gpu(h100DeviceSpec(timing, cal));
    StageShape stage;
    for (int i = 0; i < 32; ++i)
        stage.decodeContexts.push_back(2048);
    const OpCost decode = costs.attentionDecode(stage);
    const auto hybrid_t = dev.runAttention(decode, {});
    const auto gpu_t = gpu.runAttention(decode, {});
    // Logic-PIM's ~3x bandwidth advantage must show.
    EXPECT_LT(hybrid_t.composed * 2, gpu_t.composed);
}

TEST_F(DuplexDeviceTest, PrefillAttentionStaysOnXpu)
{
    Device dev(spec(false));
    Device gpu(h100DeviceSpec(timing, cal));
    StageShape stage;
    stage.prefillLengths.push_back(4096);
    const OpCost prefill = costs.attentionPrefill(stage);
    const auto hybrid_t = dev.runAttention({}, prefill);
    const auto gpu_t = gpu.runAttention({}, prefill);
    EXPECT_EQ(hybrid_t.composed, gpu_t.composed);
}

TEST_F(DuplexDeviceTest, CoProcessedAttentionOverlaps)
{
    StageShape stage;
    for (int i = 0; i < 32; ++i)
        stage.decodeContexts.push_back(2048);
    stage.prefillLengths.push_back(2048);
    const OpCost decode = costs.attentionDecode(stage);
    const OpCost prefill = costs.attentionPrefill(stage);

    Device serial(spec(false));
    Device co(spec(true));
    const auto serial_t = serial.runAttention(decode, prefill);
    const auto co_t = co.runAttention(decode, prefill);
    EXPECT_EQ(co_t.composed,
              std::max(co_t.decode.time, co_t.prefill.time));
    EXPECT_LT(co_t.composed, serial_t.composed);
    // Energy is the same work, just overlapped.
    const double serial_j = serial_t.decode.energy.totalJ() +
                            serial_t.prefill.energy.totalJ();
    const double co_j = co_t.decode.energy.totalJ() +
                        co_t.prefill.energy.totalJ();
    EXPECT_NEAR(co_j, serial_j, serial_j * 0.25);
}

TEST_F(DuplexDeviceTest, DecodeMoeGoesLow)
{
    Device dev(spec(false));
    // Decoding-only stage: 16 tokens per expert => low Op/B.
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    dev.runMoe(experts);
    EXPECT_EQ(dev.lastExpertsOnLow(), 8);
}

TEST_F(DuplexDeviceTest, MixedMoeGoesXpu)
{
    Device dev(spec(false));
    // Mixed stage: ~1k tokens per expert => high Op/B.
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({1100, costs.expertFfn(1100)});
    dev.runMoe(experts);
    EXPECT_EQ(dev.lastExpertsOnLow(), 0);
}

TEST_F(DuplexDeviceTest, CoProcessingNeverSlower)
{
    LayerCosts glam_costs{glamConfig()};
    const auto s_serial = spec(false);
    const auto s_co = spec(true);
    Device serial(s_serial);
    Device co(s_co);
    co.setExpertCost(glam_costs.expertFfnAffine(), 1.0);

    Rng rng(3);
    ExpertSelector sel(64, 2);
    for (int trial = 0; trial < 20; ++trial) {
        const auto hist = sel.sample(rng, 128);
        std::vector<ExpertWork> experts;
        for (auto h : hist)
            experts.push_back({h, glam_costs.expertFfn(h)});
        const PicoSec t_serial = serial.runMoe(experts).time;
        const PicoSec t_co = co.runMoe(experts).time;
        EXPECT_LE(t_co, t_serial);
    }
}

TEST_F(DuplexDeviceTest, CoProcessingSplitsSkewedLoad)
{
    const auto s = spec(true);
    Device dev(s);
    dev.setExpertCost(costs.expertFfnAffine(), 1.0);
    // One prefill-heavy expert plus cold decode experts.
    std::vector<ExpertWork> experts;
    experts.push_back({4096, costs.expertFfn(4096)});
    for (int e = 0; e < 7; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    dev.runMoe(experts);
    EXPECT_GT(dev.lastExpertsOnLow(), 0);
    EXPECT_LT(dev.lastExpertsOnLow(), 8);
}

TEST_F(DuplexDeviceTest, EnergyUsesLowPathWhenOnLow)
{
    Device dev(spec(false));
    Device gpu(h100DeviceSpec(timing, cal));
    std::vector<ExpertWork> experts;
    for (int e = 0; e < 8; ++e)
        experts.push_back({16, costs.expertFfn(16)});
    const double dup_j = dev.runMoe(experts).energy.dramJ;
    const double gpu_j = gpu.runMoe(experts).energy.dramJ;
    // Logic-PIM skips the interposer: visibly lower DRAM energy.
    EXPECT_LT(dup_j, 0.8 * gpu_j);
}

TEST(DeviceMoeGroups, HistogramPricingMatchesRunMoeComposition)
{
    // gpu: the xPU alone; duplex: engine selection per group;
    // duplex-pe: expert co-processing; duplex-pe-et and bank-pim:
    // expert-tensor-parallel groups (co-processed, energy scaled
    // per slice). Checked on the freshly built tables, then again
    // warm.
    for (const char *system :
         {"gpu", "duplex", "duplex-pe", "duplex-pe-et", "bank-pim"}) {
        for (const ModelConfig &model :
             {mixtralConfig(), glamConfig()}) {
            const test::MoePlacement p =
                test::moePlacement(system, model);
            Device dev(p.spec);
            Device ref(p.spec);
            dev.setExpertCost(p.cost, p.shard);
            ref.setExpertCost(p.cost, p.shard);
            const auto hists =
                test::moeHistograms(model.numExperts, 17, 40);
            for (int pass = 0; pass < 2; ++pass) {
                for (const auto &hist : hists) {
                    const DeviceTiming got = dev.runMoeGroups(
                        hist, p.groupSize, p.energyScale);
                    const DeviceTiming want =
                        test::referenceMoeGroups(ref, hist, p);
                    SCOPED_TRACE(std::string(system) + " " +
                                 model.name);
                    EXPECT_EQ(got.time, want.time);
                    EXPECT_EQ(got.energy.dramJ, want.energy.dramJ);
                    EXPECT_EQ(got.energy.computeJ,
                              want.energy.computeJ);
                    EXPECT_EQ(dev.lastExpertsOnLow(),
                              ref.lastExpertsOnLow());
                }
            }
        }
    }
}

} // namespace
} // namespace duplex
