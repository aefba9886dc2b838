/**
 * @file
 * Calibration-layer tests: the factors everything downstream uses.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "dram/calibrate.hh"

namespace duplex
{
namespace
{

TEST(Calibration, EfficienciesInPhysicalRange)
{
    const DramCalibration &cal = cachedCalibration();
    EXPECT_GT(cal.xpuStreamEff, 0.80);
    EXPECT_LE(cal.xpuStreamEff, 1.0);
    EXPECT_GT(cal.pimStaggeredEff, 0.55);
    EXPECT_LE(cal.pimStaggeredEff, 1.0);
    EXPECT_GT(cal.pimLockstepEff, 0.35);
    EXPECT_LE(cal.pimLockstepEff, cal.pimStaggeredEff);
}

TEST(Calibration, BundleGainNearPaperClaim)
{
    const HbmTiming t = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();
    // Provisioned 4 x, sustained close to 3 x after row switches.
    EXPECT_GT(cal.pimGain(t), 2.5);
    EXPECT_LT(cal.pimGain(t), 4.0);
}

TEST(Calibration, CoProcessingInterferenceSmall)
{
    const DramCalibration &cal = cachedCalibration();
    // Sharing ACT windows and refresh costs only a few percent,
    // which is what makes co-processing worthwhile (Section IV-C).
    EXPECT_GT(cal.xpuCoEff, 0.92 * cal.xpuStreamEff);
    EXPECT_GT(cal.pimCoEff, 0.92 * cal.pimStaggeredEff);
}

TEST(Calibration, StackBandwidthsConsistent)
{
    const HbmTiming t = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();
    EXPECT_NEAR(cal.xpuStackBps(t),
                t.stackPeakBytesPerSec() * cal.xpuStreamEff, 1.0);
    EXPECT_GT(cal.pimStackBps(t), cal.xpuStackBps(t));
}

TEST(Calibration, CachedIsStable)
{
    const DramCalibration &a = cachedCalibration();
    const DramCalibration &b = cachedCalibration();
    EXPECT_EQ(&a, &b);
}

/** @p v as a hex-float literal, exact and ready to paste. */
std::string
hexLiteral(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

TEST(Calibration, CommittedTableMatchesLiveProbes)
{
    const DramCalibration live = calibrateDram(hbm3Timing());
    const DramCalibration &table = kHbm3Calibration;
    EXPECT_EQ(&cachedCalibration(), &table);
    const struct
    {
        const char *name;
        double DramCalibration::*field;
    } fields[] = {
        {"xpuStreamEff", &DramCalibration::xpuStreamEff},
        {"pimStaggeredEff", &DramCalibration::pimStaggeredEff},
        {"pimLockstepEff", &DramCalibration::pimLockstepEff},
        {"xpuCoEff", &DramCalibration::xpuCoEff},
        {"pimCoEff", &DramCalibration::pimCoEff},
    };
    bool same = true;
    std::string paste;
    for (const auto &f : fields) {
        same = same && live.*f.field == table.*f.field;
        paste += "    ." + std::string(f.name) + " = " +
                 hexLiteral(live.*f.field) + ",\n";
    }
    EXPECT_TRUE(same)
        << "the live HBM3 probes no longer match kHbm3Calibration. "
           "If the DRAM model change is intended, replace the "
           "initializers of kHbm3Calibration in "
           "src/dram/calibrate.cc with:\n"
        << paste;
}

TEST(Calibration, DeterministicAcrossRuns)
{
    const DramCalibration c1 = calibrateDram(hbm3Timing(), 256 * kKiB);
    const DramCalibration c2 = calibrateDram(hbm3Timing(), 256 * kKiB);
    EXPECT_DOUBLE_EQ(c1.xpuStreamEff, c2.xpuStreamEff);
    EXPECT_DOUBLE_EQ(c1.pimStaggeredEff, c2.pimStaggeredEff);
}

TEST(Calibration, LongerProbesConverge)
{
    const DramCalibration c1 = calibrateDram(hbm3Timing(), 512 * kKiB);
    const DramCalibration c2 = calibrateDram(hbm3Timing(), 1 * kMiB);
    EXPECT_NEAR(c1.xpuStreamEff, c2.xpuStreamEff, 0.02);
    EXPECT_NEAR(c1.pimStaggeredEff, c2.pimStaggeredEff, 0.02);
}

} // namespace
} // namespace duplex
