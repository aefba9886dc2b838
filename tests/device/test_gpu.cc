/**
 * @file
 * GPU device tests: the H100-class baseline of Section VI, run by
 * the one Device class on a spec without a low-Op/B engine.
 */

#include <gtest/gtest.h>

#include "moe_reference.hh"

namespace duplex
{
namespace
{

class GpuTest : public ::testing::Test
{
  protected:
    HbmTiming timing = hbm3Timing();
    HybridDeviceSpec spec =
        h100DeviceSpec(timing, cachedCalibration());
    Device dev{spec};
};

TEST_F(GpuTest, SpecNumbers)
{
    EXPECT_DOUBLE_EQ(spec.xpu.peakFlops, 990e12);
    EXPECT_EQ(spec.memCapacity, 80ull * kGiB);
    EXPECT_FALSE(spec.hasLowEngine);
    // Calibrated bandwidth close to the 3.35 TB/s datasheet.
    EXPECT_GT(spec.xpu.memBps, 2.7e12);
    EXPECT_LT(spec.xpu.memBps, 3.45e12);
}

TEST_F(GpuTest, RidgePointHigh)
{
    // An H100 needs hundreds of Op/B to leave the memory-bound
    // region — the premise of Fig. 4(b).
    EXPECT_GT(spec.xpu.ridgeOpPerByte(), 200.0);
}

TEST_F(GpuTest, HighOpbRunsPositive)
{
    const DeviceTiming t = dev.runHighOpb({1e12, 1'000'000'000});
    EXPECT_GT(t.time, 0);
    EXPECT_GT(t.energy.dramJ, 0.0);
    EXPECT_GT(t.energy.computeJ, 0.0);
}

TEST_F(GpuTest, AttentionSerializesGroups)
{
    const OpCost decode{1e9, 500'000'000};
    const OpCost prefill{2e12, 100'000'000};
    const AttentionTiming t = dev.runAttention(decode, prefill);
    EXPECT_EQ(t.composed, t.decode.time + t.prefill.time);
}

TEST_F(GpuTest, MoeSkipsColdExperts)
{
    std::vector<ExpertWork> experts(4);
    experts[0] = {8, {1e9, 100'000'000}};
    experts[1] = {0, {0.0, 0}}; // cold: never touched
    experts[2] = {4, {5e8, 100'000'000}};
    experts[3] = {0, {0.0, 0}};
    const DeviceTiming t = dev.runMoe(experts);

    std::vector<ExpertWork> hot{experts[0], experts[2]};
    const DeviceTiming t2 = dev.runMoe(hot);
    EXPECT_EQ(t.time, t2.time);
    EXPECT_DOUBLE_EQ(t.energy.totalJ(), t2.energy.totalJ());
}

TEST_F(GpuTest, MoeGroupedDispatchChargedOnce)
{
    std::vector<ExpertWork> one{{8, {1e9, 100'000'000}}};
    std::vector<ExpertWork> two{{8, {1e9, 100'000'000}},
                                {8, {1e9, 100'000'000}}};
    const PicoSec t1 = dev.runMoe(one).time;
    const PicoSec t2 = dev.runMoe(two).time;
    // Twice the work, one extra dispatch: strictly less than 2x.
    EXPECT_LT(t2, 2 * t1);
    EXPECT_GT(t2, 2 * (t1 - spec.xpu.dispatchOverhead));
}

TEST_F(GpuTest, EmptyMoeIsFree)
{
    const DeviceTiming t = dev.runMoe({});
    EXPECT_EQ(t.time, 0);
    EXPECT_DOUBLE_EQ(t.energy.totalJ(), 0.0);
}

TEST_F(GpuTest, MemoryBoundOperatorTracksBandwidth)
{
    // A pure streaming op should take ~bytes / memBps.
    const Bytes bytes = 3'000'000'000ull;
    const DeviceTiming t = dev.runHighOpb({1.0, bytes});
    const double expect_sec =
        static_cast<double>(bytes) / spec.xpu.memBps;
    EXPECT_NEAR(psToSec(t.time), expect_sec, expect_sec * 0.01);
}

TEST(Device, GpuSpecMatchesRetiredGpuDevice)
{
    // Values of the former xPU-only device class on the H100 spec,
    // captured before it was merged into Device: the GPU spec must
    // keep them bit for bit.
    const HybridDeviceSpec spec =
        h100DeviceSpec(hbm3Timing(), cachedCalibration());
    Device dev(spec);
    auto expect = [](const DeviceTiming &t, PicoSec time, double dram,
                     double compute) {
        EXPECT_EQ(t.time, time);
        EXPECT_EQ(t.energy.dramJ, dram);
        EXPECT_EQ(t.energy.computeJ, compute);
    };
    const DeviceTiming none;

    expect(dev.runHighOpb({1e12, 1'000'000'000}), 1348801347,
           0x1.e108c3f3e0371p-6, 0x1.9999999999999p-2);
    expect(dev.runHighOpb({1.0, 3'000'000'000ull}), 989477601,
           0x1.68c692f6e8294p-4, 0x1.c25c268497682p-42);

    const OpCost decode{1e9, 500'000'000};
    const OpCost prefill{2e12, 100'000'000};
    const DeviceTiming want_decode{166579600,
                                   {0x1.e108c3f3e0371p-7,
                                    0x1.a36e2eb1c432cp-12}};
    const DeviceTiming want_prefill{2695602694,
                                    {0x1.80d3cff64cf8dp-9,
                                     0x1.9999999999999p-1}};
    struct Case
    {
        OpCost decode, prefill;
        DeviceTiming wantDecode, wantPrefill;
        PicoSec composed;
    };
    for (const Case &c :
         {Case{decode, {}, want_decode, none, 166579600},
          Case{{}, prefill, none, want_prefill, 2695602694},
          Case{decode, prefill, want_decode, want_prefill,
               2862182294}}) {
        const AttentionTiming t = dev.runAttention(c.decode, c.prefill);
        expect(t.decode, c.wantDecode.time, c.wantDecode.energy.dramJ,
               c.wantDecode.energy.computeJ);
        expect(t.prefill, c.wantPrefill.time,
               c.wantPrefill.energy.dramJ,
               c.wantPrefill.energy.computeJ);
        EXPECT_EQ(t.composed, c.composed);
    }

    // GpuTest's expert sets: cold experts, one and two hot ones,
    // and none at all.
    const std::vector<ExpertWork> mixed{{8, {1e9, 100'000'000}},
                                        {0, {0.0, 0}},
                                        {4, {5e8, 100'000'000}},
                                        {0, {0.0, 0}}};
    const std::vector<ExpertWork> one{{8, {1e9, 100'000'000}}};
    const std::vector<ExpertWork> two{{8, {1e9, 100'000'000}},
                                      {8, {1e9, 100'000'000}}};
    expect(dev.runMoe(mixed), 67831840, 0x1.80d3cff64cf8dp-8,
           0x1.3a92a30553261p-11);
    expect(dev.runMoe(one), 34915920, 0x1.80d3cff64cf8dp-9,
           0x1.a36e2eb1c432cp-12);
    expect(dev.runMoe(two), 67831840, 0x1.80d3cff64cf8dp-8,
           0x1.a36e2eb1c432cp-11);
    expect(dev.runMoe({}), 0, 0.0, 0.0);
    EXPECT_EQ(dev.lastExpertsOnLow(), 0);

    // The histogram path, summed over seeded Mixtral layers.
    const test::MoePlacement p = test::moePlacement("gpu", mixtralConfig());
    Device moe(p.spec);
    moe.setExpertCost(p.cost, p.shard);
    DeviceTiming sum;
    for (const auto &hist : test::moeHistograms(8, 11, 40)) {
        const DeviceTiming t =
            moe.runMoeGroups(hist, p.groupSize, p.energyScale);
        sum.time += t.time;
        sum.energy.dramJ += t.energy.dramJ;
        sum.energy.computeJ += t.energy.computeJ;
    }
    expect(sum, 98449047541, 0x1.b768413dc9361p+1,
           0x1.172eecef8d37p+5);
}

TEST(Device, CoProcessingWithoutLowEngineIsFatal)
{
    HybridDeviceSpec spec =
        h100DeviceSpec(hbm3Timing(), cachedCalibration());
    spec.coProcessing = true;
    EXPECT_EXIT({ Device dev(spec); }, ::testing::ExitedWithCode(1),
                "co-processing needs a low-Op/B engine");
}

} // namespace
} // namespace duplex
