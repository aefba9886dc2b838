/**
 * @file
 * Baseline GPU device spec (NVIDIA H100-class, Section VI).
 *
 * 990 TFLOPS dense FP16, five HBM3 stacks (80 GB), memory bandwidth
 * taken from the calibrated cycle-level DRAM model rather than the
 * datasheet peak. The GPU has no low-Op/B engine, so the one device
 * class (core/duplex_device.hh) runs everything on its xPU.
 */

#ifndef DUPLEX_DEVICE_GPU_HH
#define DUPLEX_DEVICE_GPU_HH

#include "device/device.hh"
#include "dram/calibrate.hh"

namespace duplex
{

/** Build the H100-class xPU engine from the DRAM calibration. */
EngineSpec h100Engine(const HbmTiming &timing,
                      const DramCalibration &cal, int num_stacks = 5);

/** Full H100-class device spec (no low-Op/B engine). */
HybridDeviceSpec h100DeviceSpec(const HbmTiming &timing,
                                const DramCalibration &cal);

} // namespace duplex

#endif // DUPLEX_DEVICE_GPU_HH
