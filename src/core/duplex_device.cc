#include "core/duplex_device.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

HybridDeviceSpec
duplexDeviceSpec(const HbmTiming &timing, const DramCalibration &cal,
                 bool co_processing)
{
    return pimVariantDeviceSpec(PimVariant::LogicPim, timing, cal,
                                co_processing);
}

HybridDeviceSpec
pimVariantDeviceSpec(PimVariant variant, const HbmTiming &timing,
                     const DramCalibration &cal, bool co_processing)
{
    HybridDeviceSpec spec = h100DeviceSpec(timing, cal);
    spec.name = std::string("Duplex(") + pimVariantName(variant) + ")";
    spec.hasLowEngine = true;
    switch (variant) {
      case PimVariant::LogicPim:
        spec.low = logicPimEngine(timing, cal, spec.numStacks);
        break;
      case PimVariant::BankPim:
        spec.low = bankPimEngine(timing, cal, spec.numStacks);
        break;
      case PimVariant::BankGroupPim:
        spec.low = bankGroupPimEngine(timing, cal, spec.numStacks);
        break;
      default:
        panic("unknown PIM variant");
    }
    spec.lowPath = pimVariantPath(variant);
    spec.lowCls = pimVariantClass(variant);
    spec.coProcessing = co_processing;
    return spec;
}

Device::Device(const HybridDeviceSpec &spec)
    : spec_(spec), energy_(spec.energyParams)
{
    fatalIf(spec_.coProcessing && !spec_.hasLowEngine,
            "Device: co-processing needs a low-Op/B engine");
    if (spec_.hasLowEngine)
        low_ = std::make_unique<LowEngine>();
}

DeviceTiming
Device::onXpu(const OpCost &cost)
{
    return engineRun(spec_.xpu, spec_.xpuPath, spec_.xpuCls, energy_,
                     cost);
}

DeviceTiming
Device::onLow(const OpCost &cost)
{
    return engineRun(spec_.low, spec_.lowPath, spec_.lowCls, energy_,
                     cost);
}

DeviceTiming
Device::onBest(const OpCost &cost)
{
    if (!low_)
        return onXpu(cost);
    if (cost.flops <= 0.0 && cost.bytes == 0)
        return {};
    const PicoSec t_xpu =
        operatorTime(spec_.xpu, cost.flops, cost.bytes);
    const PicoSec t_low =
        operatorTime(spec_.low, cost.flops, cost.bytes);
    return t_low < t_xpu ? onLow(cost) : onXpu(cost);
}

DeviceTiming
Device::runHighOpb(const OpCost &cost)
{
    return onXpu(cost);
}

AttentionTiming
Device::runAttention(const OpCost &decode, const OpCost &prefill)
{
    const bool have_decode = decode.bytes > 0 || decode.flops > 0.0;
    const bool have_prefill =
        prefill.bytes > 0 || prefill.flops > 0.0;

    AttentionTiming t;
    if (spec_.coProcessing && have_decode && have_prefill) {
        // Decode attention on the low engine concurrent with
        // prefill attention on the xPU (Section V-B).
        t.decode = onLow(decode);
        t.prefill = onXpu(prefill);
        t.composed =
            coProcessedAttentionTime(t.decode.time, t.prefill.time);
        return t;
    }

    if (have_decode)
        t.decode = onBest(decode);
    if (have_prefill)
        t.prefill = onBest(prefill);
    t.composed = t.decode.time + t.prefill.time;
    return t;
}

DeviceTiming
Device::runMoe(const std::vector<ExpertWork> &experts)
{
    lastExpertsOnLow_ = 0;
    int num_active = 0;
    for (const auto &e : experts)
        if (e.tokens > 0)
            ++num_active;
    if (num_active == 0)
        return {};

    if (!low_ || !low_->lut) {
        // Engine selection for the whole layer by total time (the
        // xPU alone without a low engine).
        PicoSec t_xpu = spec_.xpu.dispatchOverhead;
        PicoSec t_low = spec_.low.dispatchOverhead;
        for (const auto &e : experts) {
            if (e.tokens == 0)
                continue;
            t_xpu += operatorTimeNoOverhead(spec_.xpu, e.cost.flops,
                                            e.cost.bytes);
            if (low_)
                t_low += operatorTimeNoOverhead(
                    spec_.low, e.cost.flops, e.cost.bytes);
        }
        const bool use_low = low_ && t_low < t_xpu;
        DeviceTiming total;
        total.time = use_low ? t_low : t_xpu;
        if (use_low)
            lastExpertsOnLow_ = num_active;
        const DramPath path = use_low ? spec_.lowPath : spec_.xpuPath;
        const ComputeClass cls = use_low ? spec_.lowCls : spec_.xpuCls;
        for (const auto &e : experts) {
            if (e.tokens == 0)
                continue;
            total.energy.dramJ +=
                energy_.dramEnergyJ(path, e.cost.bytes);
            total.energy.computeJ +=
                energy_.computeEnergyJ(cls, e.cost.flops);
        }
        return total;
    }

    // Expert co-processing: lookup-table prefix search, run in the
    // reused scratch partition (zero-token experts are dropped by
    // the partitioner itself).
    LowEngine &low = *low_;
    partitionExpertsInto(experts, *low.lut, spec_.xpu, spec_.low,
                         low.partScratch, low.prefixScratch,
                         low.suffixScratch);
    const ExpertPartition &part = low.partScratch;
    lastExpertsOnLow_ = part.numOnLow;

    DeviceTiming total;
    total.time = part.makespan();
    for (int i = 0; i < static_cast<int>(part.sorted.size()); ++i) {
        const auto &e = part.sorted[i];
        if (i < part.numOnLow) {
            total.energy.dramJ +=
                energy_.dramEnergyJ(spec_.lowPath, e.cost.bytes);
            total.energy.computeJ +=
                energy_.computeEnergyJ(spec_.lowCls, e.cost.flops);
        } else {
            total.energy.dramJ +=
                energy_.dramEnergyJ(spec_.xpuPath, e.cost.bytes);
            total.energy.computeJ +=
                energy_.computeEnergyJ(spec_.xpuCls, e.cost.flops);
        }
    }
    return total;
}

void
Device::setExpertCost(const AffineOpCost &cost, double shard)
{
    xpuPrice_ = ExpertPriceTable(spec_.xpu, spec_.xpuPath,
                                 spec_.xpuCls, energy_, cost, shard);
    if (!low_)
        return;
    low_->price = ExpertPriceTable(spec_.low, spec_.lowPath,
                                   spec_.lowCls, energy_, cost, shard);
    // Only co-processing reads the lookup table.
    if (spec_.coProcessing)
        low_->lut.emplace(spec_.xpu, spec_.low,
                          cost.at(1).scaled(shard),
                          cost.at(2).scaled(shard));
}

DeviceTiming
Device::runMoeGroups(const std::vector<std::int64_t> &tokens,
                     int group_size, double energy_scale)
{
    // Same composition as runMoe per contiguous group (makespan
    // over groups, per-group energy scaling, engine selection or
    // co-processing per group), with every expert priced from the
    // tables and the sums taken in the same order.
    panicIf(!xpuPrice_.built(), "runMoeGroups: no expert cost set");
    DeviceTiming total;
    const std::size_t size = group_size;
    for (std::size_t g = 0; g + size <= tokens.size(); g += size) {
        DeviceTiming group;
        if (low_ && low_->lut) {
            LowEngine &low = *low_;
            low.workScratch.clear();
            for (std::size_t i = g; i < g + size; ++i)
                if (tokens[i] > 0)
                    low.workScratch.push_back(
                        {tokens[i], xpuPrice_.cost(tokens[i])});
            if (low.workScratch.empty()) {
                lastExpertsOnLow_ = 0;
                continue;
            }
            partitionExpertsInto(low.workScratch, *low.lut, spec_.xpu,
                                 spec_.low, low.partScratch,
                                 low.prefixScratch, low.suffixScratch);
            const ExpertPartition &part = low.partScratch;
            lastExpertsOnLow_ = part.numOnLow;
            group.time = part.makespan();
            for (int i = 0;
                 i < static_cast<int>(part.sorted.size()); ++i) {
                const std::int64_t n = part.sorted[i].tokens;
                group.energy += i < part.numOnLow
                                    ? low.price.at(n).energy
                                    : xpuPrice_.at(n).energy;
            }
        } else {
            // Engine selection for the whole group by total time:
            // the xPU's sum, unless the low engine's is smaller.
            lastExpertsOnLow_ = 0;
            int num_active = 0;
            group.time = spec_.xpu.dispatchOverhead;
            for (std::size_t i = g; i < g + size; ++i) {
                if (tokens[i] == 0)
                    continue;
                ++num_active;
                group += xpuPrice_.at(tokens[i]);
            }
            if (num_active == 0)
                continue;
            if (low_) {
                DeviceTiming on_low;
                on_low.time = spec_.low.dispatchOverhead;
                for (std::size_t i = g; i < g + size; ++i)
                    if (tokens[i] != 0)
                        on_low += low_->price.at(tokens[i]);
                if (on_low.time < group.time) {
                    group = on_low;
                    lastExpertsOnLow_ = num_active;
                }
            }
        }
        total.time = std::max(total.time, group.time);
        total.energy.dramJ += group.energy.dramJ * energy_scale;
        total.energy.computeJ +=
            group.energy.computeJ * energy_scale;
    }
    return total;
}

} // namespace duplex
