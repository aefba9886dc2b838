/**
 * @file
 * The device (Section IV): an xPU and, on Duplex-class specs, a
 * low-Op/B engine sharing the same HBM stacks, with Op/B-driven
 * engine selection and optional expert/attention co-processing.
 *
 * One class executes every spec. Swapping the low-Op/B engine builds
 * Bank-PIM and BankGroup-PIM devices, which is how Fig. 14 compares
 * them; leaving it out builds the H100 baseline, where every group
 * runs on the xPU.
 */

#ifndef DUPLEX_CORE_DUPLEX_DEVICE_HH
#define DUPLEX_CORE_DUPLEX_DEVICE_HH

#include <memory>
#include <optional>
#include <vector>

#include "core/coprocess.hh"
#include "core/lookup.hh"
#include "device/gpu.hh"
#include "device/pim.hh"

namespace duplex
{

/** Duplex device spec: H100-class xPU + Logic-PIM in the stacks. */
HybridDeviceSpec duplexDeviceSpec(const HbmTiming &timing,
                                  const DramCalibration &cal,
                                  bool co_processing);

/** Hybrid device built around a prior-work PIM variant. */
HybridDeviceSpec pimVariantDeviceSpec(PimVariant variant,
                                      const HbmTiming &timing,
                                      const DramCalibration &cal,
                                      bool co_processing);

/**
 * Executes operator groups on a package. With a low-Op/B engine,
 * engine selection picks the faster engine per operator group
 * (equivalently: compares the group's Op/B against the engines'
 * ridge points) and co-processing runs both engines concurrently on
 * disjoint bank bundles. Without one, every group runs on the xPU.
 */
class Device
{
  public:
    /** Fatal for a co-processing spec without a low-Op/B engine. */
    explicit Device(const HybridDeviceSpec &spec);

    const HybridDeviceSpec &spec() const { return spec_; }

    /** High-Op/B work: QKV gen, projection, dense FFN, LM head. */
    DeviceTiming runHighOpb(const OpCost &cost);

    /**
     * Attention layer: decode-sequence and prefill-sequence groups,
     * co-processed when the spec says so (Section V-B).
     */
    AttentionTiming runAttention(const OpCost &decode,
                                 const OpCost &prefill);

    /**
     * MoE layer: per-expert work. Experts with zero tokens are not
     * touched (their weights are never read). The reference for
     * runMoeGroups.
     */
    DeviceTiming runMoe(const std::vector<ExpertWork> &experts);

    /**
     * Install the expert FFN cost: expert work at n tokens is
     * cost.at(n).scaled(shard) on each device. Builds the
     * per-engine ExpertPriceTables and, for a co-processing spec,
     * the expert-time lookup table from the 1- and 2-token samples.
     */
    void setExpertCost(const AffineOpCost &cost, double shard);

    /**
     * Whole MoE layer from its expert histogram: @p tokens[e]
     * tokens on expert e, experts in contiguous groups of
     * @p group_size (one group per expert-parallel device / ET
     * shard). Bit-identical to runMoe per group over
     * ExpertWork{tokens[e], cost.at(tokens[e]).scaled(shard)},
     * combined as the layer's makespan (max group time) and the sum
     * of each group's energy scaled by @p energy_scale. Needs
     * setExpertCost first.
     */
    DeviceTiming runMoeGroups(const std::vector<std::int64_t> &tokens,
                              int group_size, double energy_scale);

    /** Experts routed to the low engine in the last MoE call. */
    int lastExpertsOnLow() const { return lastExpertsOnLow_; }

  private:
    /**
     * The low-Op/B engine's state, allocated only for specs that
     * have the engine, so a GPU device carries one null pointer.
     */
    struct LowEngine
    {
        ExpertPriceTable price;
        std::optional<ExpertTimeLut> lut; //!< co-processing only

        // Reused across MoE layers (one call per layer per stage).
        std::vector<ExpertWork> workScratch;
        ExpertPartition partScratch;
        std::vector<PicoSec> prefixScratch;
        std::vector<PicoSec> suffixScratch;
    };

    HybridDeviceSpec spec_;
    EnergyModel energy_;
    ExpertPriceTable xpuPrice_;
    std::unique_ptr<LowEngine> low_;
    int lastExpertsOnLow_ = 0;

    DeviceTiming onXpu(const OpCost &cost);
    DeviceTiming onLow(const OpCost &cost);

    /** Faster engine for a whole group (Op/B-driven selection). */
    DeviceTiming onBest(const OpCost &cost);
};

} // namespace duplex

#endif // DUPLEX_CORE_DUPLEX_DEVICE_HH
