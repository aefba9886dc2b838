/**
 * @file
 * Reference composition for Device::runMoeGroups, shared by the
 * device tests: runMoe per contiguous expert group over ExpertWork
 * built from the histogram, the makespan over groups, and each
 * group's energy scaled before summing.
 */

#ifndef DUPLEX_TESTS_DEVICE_MOE_REFERENCE_HH
#define DUPLEX_TESTS_DEVICE_MOE_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/duplex_device.hh"
#include "parallel/sharding.hh"
#include "sim/presets.hh"

namespace duplex
{
namespace test
{

/** How a preset system places and prices one MoE layer. */
struct MoePlacement
{
    HybridDeviceSpec spec;
    AffineOpCost cost;       //!< unsharded expert FFN cost
    double shard = 1.0;      //!< expert slice per device
    int groupSize = 1;       //!< experts per placement group
    double energyScale = 1.0; //!< devices sharing each group
};

/** The MoE placement of preset @p system serving @p model. */
inline MoePlacement
moePlacement(const std::string &system, const ModelConfig &model)
{
    const ClusterConfig cfg = makeClusterConfig(system, model, 7);
    const ShardingPlan plan =
        makeShardingPlan(model, cfg.topo, cfg.expertPlacement);
    const LayerCosts costs(model);
    MoePlacement p;
    p.spec = cfg.deviceSpec;
    p.cost = costs.expertFfnAffine();
    p.shard = plan.expertShardFraction();
    p.groupSize = plan.experts == ExpertPlacement::ExpertParallel
                      ? std::max(1, plan.expertsPerDevice)
                      : model.numExperts / plan.expertEpNodes;
    p.energyScale = static_cast<double>(plan.expertTpDegree);
    return p;
}

/** runMoe per group, combined the way runMoeGroups documents. */
inline DeviceTiming
referenceMoeGroups(Device &dev, const std::vector<std::int64_t> &tokens,
                   const MoePlacement &p)
{
    DeviceTiming total;
    std::vector<ExpertWork> group;
    for (std::size_t g = 0; g + p.groupSize <= tokens.size();
         g += p.groupSize) {
        group.clear();
        for (int i = 0; i < p.groupSize; ++i) {
            const std::int64_t n = tokens[g + i];
            group.push_back({n, p.cost.at(n).scaled(p.shard)});
        }
        const DeviceTiming t = dev.runMoe(group);
        total.time = std::max(total.time, t.time);
        total.energy.dramJ += t.energy.dramJ * p.energyScale;
        total.energy.computeJ += t.energy.computeJ * p.energyScale;
    }
    return total;
}

/**
 * Seeded MoE-layer histograms over @p num_experts: zero counts,
 * small decode counts, counts at and just past
 * ExpertPriceTable::kCap, and prefill-sized counts, plus the
 * all-cold and all-hot corner cases.
 */
inline std::vector<std::vector<std::int64_t>>
moeHistograms(int num_experts, std::uint64_t seed, int count)
{
    const std::int64_t cap = ExpertPriceTable::kCap;
    std::vector<std::vector<std::int64_t>> hists;
    hists.emplace_back(num_experts, 0);
    hists.emplace_back(num_experts, cap);
    Rng rng(seed);
    for (int h = 0; h < count; ++h) {
        std::vector<std::int64_t> hist(num_experts);
        for (std::int64_t &n : hist) {
            const std::int64_t kind = rng.uniformInt(0, 9);
            if (kind <= 2)
                n = 0;
            else if (kind <= 5)
                n = rng.uniformInt(1, cap - 2);
            else if (kind == 6)
                n = rng.uniformInt(cap - 1, cap + 1);
            else if (kind == 7)
                n = rng.uniformInt(cap + 2, 4 * cap);
            else
                n = rng.uniformInt(512, 8192);
        }
        hists.push_back(hist);
    }
    return hists;
}

} // namespace test
} // namespace duplex

#endif // DUPLEX_TESTS_DEVICE_MOE_REFERENCE_HH
