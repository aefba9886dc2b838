#include "device/gpu.hh"

namespace duplex
{

EngineSpec
h100Engine(const HbmTiming &timing, const DramCalibration &cal,
           int num_stacks)
{
    EngineSpec e;
    e.name = "xPU";
    e.peakFlops = 990e12;
    e.computeEff = 0.75;
    e.memBps = cal.xpuStackBps(timing) * num_stacks;
    e.dispatchOverhead = 2 * kPsPerUs;
    return e;
}

HybridDeviceSpec
h100DeviceSpec(const HbmTiming &timing, const DramCalibration &cal)
{
    HybridDeviceSpec spec;
    spec.name = "GPU";
    spec.xpu = h100Engine(timing, cal);
    spec.hasLowEngine = false;
    spec.numStacks = 5;
    spec.memCapacity = static_cast<Bytes>(spec.numStacks) * 16 * kGiB;
    return spec;
}

} // namespace duplex
