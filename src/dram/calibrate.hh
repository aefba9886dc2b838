/**
 * @file
 * Bandwidth calibration: measure what the cycle-level DRAM model
 * actually sustains instead of assuming datasheet peaks.
 *
 * The probes stream multi-megabyte reads through one pseudo channel
 * and report sustained/provisioned efficiency for:
 *  - the xPU path alone,
 *  - the Logic-PIM bundle path alone (staggered and lockstep C/A),
 *  - both paths concurrently on disjoint bundles (the co-processing
 *    case, which shares rank ACT windows and refresh).
 *
 * Device models consume these factors so every figure in the paper
 * reproduction rests on measured DRAM behaviour. The default HBM3
 * factors are committed as constants (kHbm3Calibration), the exact
 * output of calibrateDram(hbm3Timing()), so building a system costs
 * no probe run; Calibration.CommittedTableMatchesLiveProbes re-runs
 * the probes and fails when the DRAM model moves them.
 */

#ifndef DUPLEX_DRAM_CALIBRATE_HH
#define DUPLEX_DRAM_CALIBRATE_HH

#include "dram/timing.hh"

namespace duplex
{

/** Sustained-bandwidth factors measured on the cycle model. */
struct DramCalibration
{
    /** Sustained / peak for an xPU-path stream over all banks. */
    double xpuStreamEff = 1.0;

    /** Sustained / provisioned-4x for a staggered bundle stream. */
    double pimStaggeredEff = 1.0;

    /** Sustained / provisioned-4x for a lockstep (shared C/A) one. */
    double pimLockstepEff = 1.0;

    /** xPU efficiency while Logic-PIM streams other bundles. */
    double xpuCoEff = 1.0;

    /** Logic-PIM efficiency while xPU streams other bundles. */
    double pimCoEff = 1.0;

    /** Sustained xPU bytes/s for one stack. */
    double xpuStackBps(const HbmTiming &t) const
    {
        return t.stackPeakBytesPerSec() * xpuStreamEff;
    }

    /** Sustained Logic-PIM bytes/s for one stack (staggered mode). */
    double pimStackBps(const HbmTiming &t) const
    {
        return t.pchBundlePeakBytesPerSec() * t.pchPerStack *
               pimStaggeredEff;
    }

    /** Measured Logic-PIM gain over the xPU path. */
    double pimGain(const HbmTiming &t) const
    {
        return pimStackBps(t) / xpuStackBps(t);
    }
};

/**
 * Run the probes. @p bytes_per_pch controls probe length; the default
 * reaches steady state through several refresh windows.
 */
DramCalibration calibrateDram(const HbmTiming &timing,
                              Bytes bytes_per_pch = 2 * kMiB);

/**
 * The calibration of the default HBM3 timing: the committed output
 * of calibrateDram(hbm3Timing()) at the default probe length,
 * re-measured bit for bit by the test
 * Calibration.CommittedTableMatchesLiveProbes.
 */
extern const DramCalibration kHbm3Calibration;

/**
 * Calibration for the default HBM3 timing (kHbm3Calibration); runs
 * no probe.
 */
const DramCalibration &cachedCalibration();

} // namespace duplex

#endif // DUPLEX_DRAM_CALIBRATE_HH
