#include "device/gpu.hh"

#include <algorithm>

#include "common/log.hh"

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

GpuDevice::GpuDevice(const HybridDeviceSpec &spec)
    : spec_(spec), energy_(spec.energyParams)
{
}

DeviceTiming
GpuDevice::runHighOpb(const OpCost &cost)
{
    return engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls, energy_,
                     cost);
}

AttentionTiming
GpuDevice::runAttention(const OpCost &decode, const OpCost &prefill)
{
    AttentionTiming t;
    t.decode = engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls,
                         energy_, decode);
    t.prefill = engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls,
                          energy_, prefill);
    t.composed = t.decode.time + t.prefill.time;
    return t;
}

DeviceTiming
GpuDevice::runMoe(const std::vector<ExpertWork> &experts)
{
    // Grouped-GEMM execution: one dispatch for the group, experts
    // processed back to back.
    DeviceTiming total;
    bool any = false;
    for (const auto &e : experts) {
        if (e.tokens == 0)
            continue;
        any = true;
        DeviceTiming t;
        t.time = operatorTimeNoOverhead(spec_.xpu, e.cost.flops,
                                        e.cost.bytes);
        t.energy.dramJ =
            energy_.dramEnergyJ(spec_.xpuPath, e.cost.bytes);
        t.energy.computeJ =
            energy_.computeEnergyJ(spec_.xpuCls, e.cost.flops);
        total += t;
    }
    if (any)
        total.time += spec_.xpu.dispatchOverhead;
    return total;
}

void
GpuDevice::setExpertCost(const AffineOpCost &cost, double shard)
{
    xpuPrice_ = ExpertPriceTable(spec_.xpu, spec_.xpuPath,
                                 spec_.xpuCls, energy_, cost, shard);
}

DeviceTiming
GpuDevice::runMoeGroups(const std::vector<std::int64_t> &tokens,
                        int group_size, double energy_scale)
{
    // runMoe per contiguous group, makespan over groups, per-group
    // energy scaling — each expert priced from the table, and the
    // sums taken in the same expert order.
    panicIf(!xpuPrice_.built(), "runMoeGroups: no expert cost set");
    DeviceTiming total;
    const std::size_t size = group_size;
    for (std::size_t g = 0; g + size <= tokens.size(); g += size) {
        DeviceTiming group;
        bool any = false;
        for (std::size_t i = g; i < g + size; ++i) {
            if (tokens[i] == 0)
                continue;
            any = true;
            group += xpuPrice_.at(tokens[i]);
        }
        if (any)
            group.time += spec_.xpu.dispatchOverhead;
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
