#include "device/device.hh"

namespace duplex
{

ExpertPriceTable::ExpertPriceTable(const EngineSpec &engine,
                                   DramPath path, ComputeClass cls,
                                   const EnergyModel &energy,
                                   const AffineOpCost &cost,
                                   double shard)
    : engine_(engine), path_(path), cls_(cls), energy_(energy),
      cost_(cost), shard_(shard), built_(true)
{
    for (std::int64_t n = 0; n < kCap; ++n)
        table_[n] = price(n);
}

DeviceTiming
ExpertPriceTable::price(std::int64_t tokens) const
{
    const OpCost c = cost(tokens);
    DeviceTiming t;
    t.time = operatorTimeNoOverhead(engine_, c.flops, c.bytes);
    t.energy.dramJ = energy_.dramEnergyJ(path_, c.bytes);
    t.energy.computeJ = energy_.computeEnergyJ(cls_, c.flops);
    return t;
}

DeviceTiming
engineRun(const EngineSpec &engine, DramPath path, ComputeClass cls,
          const EnergyModel &energy, const OpCost &cost)
{
    DeviceTiming t;
    if (cost.flops <= 0.0 && cost.bytes == 0)
        return t;
    t.time = operatorTime(engine, cost.flops, cost.bytes);
    t.energy.dramJ = energy.dramEnergyJ(path, cost.bytes);
    t.energy.computeJ = energy.computeEnergyJ(cls, cost.flops);
    return t;
}

} // namespace duplex
