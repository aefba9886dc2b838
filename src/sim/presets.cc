#include "sim/presets.hh"

#include "common/log.hh"

namespace duplex
{

SystemTopology
defaultTopology(const ModelConfig &model, bool doubled)
{
    SystemTopology topo;
    int devices = 4;
    if (model.name == "GLaM")
        devices = 8;
    else if (model.name == "Grok1")
        devices = 16;
    if (doubled)
        devices *= 2;
    topo.devicesPerNode = std::min(devices, 8);
    topo.numNodes = (devices + 7) / 8;
    return topo;
}

ClusterConfig
makeClusterConfig(const std::string &system_id,
                  const ModelConfig &model, std::uint64_t seed)
{
    const HbmTiming timing = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();

    ClusterConfig cfg;
    cfg.model = model;
    cfg.seed = seed;
    cfg.topo = defaultTopology(model, system_id == "gpu-2x");
    cfg.expertPlacement = ExpertPlacement::ExpertParallel;

    // The tensor-parallel-expert presets shard each expert across
    // devices; a dense model has no experts to shard.
    bool tensor_parallel_experts = true;
    if (system_id == "gpu" || system_id == "gpu-2x") {
        cfg.deviceSpec = h100DeviceSpec(timing, cal);
        tensor_parallel_experts = false;
    } else if (system_id == "duplex" || system_id == "duplex-pe") {
        cfg.deviceSpec =
            duplexDeviceSpec(timing, cal, system_id == "duplex-pe");
        tensor_parallel_experts = false;
    } else if (system_id == "duplex-pe-et") {
        cfg.deviceSpec = duplexDeviceSpec(timing, cal, true);
    } else if (system_id == "bank-pim") {
        cfg.deviceSpec = pimVariantDeviceSpec(PimVariant::BankPim,
                                              timing, cal, true);
    } else if (system_id == "bankgroup-pim") {
        cfg.deviceSpec = pimVariantDeviceSpec(
            PimVariant::BankGroupPim, timing, cal, true);
    } else {
        fatal("makeClusterConfig: no homogeneous cluster config "
              "for '" + system_id + "'");
    }
    if (tensor_parallel_experts && model.numExperts > 0)
        cfg.expertPlacement = ExpertPlacement::ExpertTensorParallel;
    return cfg;
}

HeteroConfig
makeHeteroConfig(const ModelConfig &model, std::uint64_t seed)
{
    const HbmTiming timing = hbm3Timing();
    const DramCalibration &cal = cachedCalibration();

    HeteroConfig cfg;
    cfg.model = model;
    cfg.seed = seed;
    cfg.numGpus = 2;
    cfg.numPimDevices = 2;
    cfg.gpuSpec = h100DeviceSpec(timing, cal);
    cfg.pimSpec = duplexDeviceSpec(timing, cal, false);
    cfg.link = SystemTopology{}.intraNode;
    return cfg;
}

} // namespace duplex
