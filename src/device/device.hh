/**
 * @file
 * Device description and pricing values: the spec of one package,
 * its per-group timing results and the per-engine expert price
 * table.
 *
 * Every package has a high-Op/B engine (the xPU); Duplex, Bank-PIM
 * and BankGroup-PIM packages add a low-Op/B engine inside the memory
 * stacks, and a plain GPU is the same spec without one. The one
 * device class that executes these specs is core/duplex_device.hh.
 */

#ifndef DUPLEX_DEVICE_DEVICE_HH
#define DUPLEX_DEVICE_DEVICE_HH

#include <array>
#include <string>

#include "compute/engine.hh"
#include "energy/energy.hh"
#include "model/layers.hh"

namespace duplex
{

/** Full description of one device package. */
struct HybridDeviceSpec
{
    std::string name = "device";

    // High-Op/B engine (always present).
    EngineSpec xpu;
    DramPath xpuPath = DramPath::XpuInterposer;
    ComputeClass xpuCls = ComputeClass::Xpu;

    // Low-Op/B engine (absent on plain GPUs).
    bool hasLowEngine = false;
    EngineSpec low;
    DramPath lowPath = DramPath::LogicDie;
    ComputeClass lowCls = ComputeClass::LogicPim;

    /** HBM capacity of the package. */
    Bytes memCapacity = 0;

    /** Number of HBM stacks. */
    int numStacks = 5;

    /** Expert and attention co-processing enabled (Duplex+PE). */
    bool coProcessing = false;

    EnergyParams energyParams;
};

/** Result of executing one operator group on a device. */
struct DeviceTiming
{
    PicoSec time = 0;
    EnergyBreakdown energy;

    DeviceTiming &operator+=(const DeviceTiming &other)
    {
        time += other.time;
        energy += other.energy;
        return *this;
    }
};

/** One expert FFN's per-device work in an MoE layer. */
struct ExpertWork
{
    std::int64_t tokens = 0;
    OpCost cost; //!< per-device shard, weights + activations
};

/**
 * One engine's price of one expert FFN shard by token count: the
 * time without dispatch overhead and the energy of
 * cost.at(tokens).scaled(shard) on that engine. A device builds one
 * per engine when the expert cost is installed. Counts below kCap
 * are priced then, into an inline array (no heap, 768 B); larger
 * counts are priced on each call by the same function, so each
 * count has exactly one value however it is read.
 *
 * kCap covers small-batch decode counts: a decode stage of batch B
 * gives an expert at most B tokens, and top-2 of 8 gives it about
 * B/4, so batch 16 always and batch 64 almost always stay below 32.
 * Prefill-sized counts (hundreds) are left out, since every fleet
 * instance carries its own table: covering them would cost
 * kilobytes per device.
 */
class ExpertPriceTable
{
  public:
    static constexpr std::int64_t kCap = 32;

    ExpertPriceTable() = default;
    ExpertPriceTable(const EngineSpec &engine, DramPath path,
                     ComputeClass cls, const EnergyModel &energy,
                     const AffineOpCost &cost, double shard);

    /** False until built from an expert cost. */
    bool built() const { return built_; }

    /** One expert's per-device shard cost at @p tokens. */
    OpCost cost(std::int64_t tokens) const
    {
        return cost_.at(tokens).scaled(shard_);
    }

    /** Time (no dispatch overhead) and energy at @p tokens. */
    DeviceTiming at(std::int64_t tokens) const
    {
        return tokens < kCap ? table_[tokens] : price(tokens);
    }

  private:
    EngineSpec engine_;
    DramPath path_ = DramPath::XpuInterposer;
    ComputeClass cls_ = ComputeClass::Xpu;
    EnergyModel energy_;
    AffineOpCost cost_;
    double shard_ = 1.0;
    bool built_ = false;
    std::array<DeviceTiming, kCap> table_{};

    DeviceTiming price(std::int64_t tokens) const;
};

/**
 * Attention-layer timing with the decode/prefill split preserved;
 * composed is the wall-clock contribution (max of both halves when
 * co-processed, their sum otherwise).
 */
struct AttentionTiming
{
    DeviceTiming decode;
    DeviceTiming prefill;
    PicoSec composed = 0;
};

/** Timing + energy of one group on a specific engine. */
DeviceTiming engineRun(const EngineSpec &engine, DramPath path,
                       ComputeClass cls, const EnergyModel &energy,
                       const OpCost &cost);

} // namespace duplex

#endif // DUPLEX_DEVICE_DEVICE_HH
