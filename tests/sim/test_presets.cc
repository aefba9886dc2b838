/**
 * @file
 * System preset tests: Section VI device counts, configuration
 * wiring and the paper systems' report names.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/registry.hh"

namespace duplex
{
namespace
{

TEST(Presets, DefaultTopologies)
{
    const SystemTopology mixtral = defaultTopology(mixtralConfig());
    EXPECT_EQ(mixtral.numNodes, 1);
    EXPECT_EQ(mixtral.devicesPerNode, 4);

    const SystemTopology glam = defaultTopology(glamConfig());
    EXPECT_EQ(glam.numNodes, 1);
    EXPECT_EQ(glam.devicesPerNode, 8);

    const SystemTopology grok = defaultTopology(grok1Config());
    EXPECT_EQ(grok.numNodes, 2);
    EXPECT_EQ(grok.devicesPerNode, 8);

    EXPECT_EQ(defaultTopology(optConfig()).totalDevices(), 4);
    EXPECT_EQ(defaultTopology(llama3Config()).totalDevices(), 4);
}

TEST(Presets, DoublingFillsNodesFirst)
{
    // "we first increased the number of devices per node to a
    // maximum of eight and increased the number of nodes".
    const SystemTopology mixtral2 =
        defaultTopology(mixtralConfig(), true);
    EXPECT_EQ(mixtral2.numNodes, 1);
    EXPECT_EQ(mixtral2.devicesPerNode, 8);

    const SystemTopology glam2 = defaultTopology(glamConfig(), true);
    EXPECT_EQ(glam2.numNodes, 2);
    EXPECT_EQ(glam2.devicesPerNode, 8);

    const SystemTopology grok2 =
        defaultTopology(grok1Config(), true);
    EXPECT_EQ(grok2.numNodes, 4);
    EXPECT_EQ(grok2.devicesPerNode, 8);
}

TEST(Presets, GpuHasNoLowEngine)
{
    const auto cfg =
        makeClusterConfig("gpu", mixtralConfig());
    EXPECT_FALSE(cfg.deviceSpec.hasLowEngine);
    EXPECT_FALSE(cfg.deviceSpec.coProcessing);
}

TEST(Presets, DuplexVariantsWiring)
{
    const auto base =
        makeClusterConfig("duplex", mixtralConfig());
    EXPECT_TRUE(base.deviceSpec.hasLowEngine);
    EXPECT_FALSE(base.deviceSpec.coProcessing);
    EXPECT_EQ(base.expertPlacement,
              ExpertPlacement::ExpertParallel);

    const auto pe =
        makeClusterConfig("duplex-pe", mixtralConfig());
    EXPECT_TRUE(pe.deviceSpec.coProcessing);
    EXPECT_EQ(pe.expertPlacement, ExpertPlacement::ExpertParallel);

    const auto et =
        makeClusterConfig("duplex-pe-et", mixtralConfig());
    EXPECT_TRUE(et.deviceSpec.coProcessing);
    EXPECT_EQ(et.expertPlacement,
              ExpertPlacement::ExpertTensorParallel);
}

TEST(Presets, EtOnDenseModelStaysExpertParallel)
{
    // ET is meaningless without experts; the preset must not
    // request an expert placement the sharding layer would reject.
    const auto cfg =
        makeClusterConfig("duplex-pe-et", llama3Config());
    EXPECT_EQ(cfg.expertPlacement,
              ExpertPlacement::ExpertParallel);
}

TEST(Presets, BankPimUsesBankPath)
{
    const auto cfg =
        makeClusterConfig("bank-pim", mixtralConfig());
    EXPECT_TRUE(cfg.deviceSpec.hasLowEngine);
    EXPECT_EQ(cfg.deviceSpec.lowPath, DramPath::BankLocal);
    EXPECT_EQ(cfg.deviceSpec.lowCls, ComputeClass::BankPim);
}

TEST(Presets, BankGroupPimUsesBankGroupPath)
{
    const auto cfg = makeClusterConfig("bankgroup-pim",
                                       mixtralConfig());
    EXPECT_EQ(cfg.deviceSpec.lowPath, DramPath::BankGroup);
}

TEST(Presets, HeteroConfigShape)
{
    const auto cfg = makeHeteroConfig(mixtralConfig());
    EXPECT_EQ(cfg.numGpus, 2);
    EXPECT_EQ(cfg.numPimDevices, 2);
    EXPECT_FALSE(cfg.gpuSpec.hasLowEngine);
    EXPECT_TRUE(cfg.pimSpec.hasLowEngine);
    EXPECT_GT(cfg.link.bytesPerSec, 100e9);
}

TEST(Presets, SystemNamesDistinct)
{
    // The paper's nine systems keep their report names...
    const SystemRegistry &registry = SystemRegistry::instance();
    const std::pair<const char *, const char *> paper[] = {
        {"gpu", "GPU"},
        {"gpu-2x", "2xGPU"},
        {"duplex", "Duplex"},
        {"duplex-pe", "Duplex+PE"},
        {"duplex-pe-et", "Duplex+PE+ET"},
        {"bank-pim", "Bank-PIM"},
        {"bankgroup-pim", "BankGroup-PIM"},
        {"hetero", "Hetero"},
        {"duplex-split", "Duplex-Split"}};
    for (const auto &[id, name] : paper)
        EXPECT_EQ(registry.displayName(id), name) << id;

    // ...and no two registered systems share a display name.
    const std::vector<std::string> ids = registeredSystems();
    std::set<std::string> names;
    for (const std::string &id : ids)
        names.insert(registry.displayName(id));
    EXPECT_EQ(names.size(), ids.size());
}

TEST(Presets, DeviceMemoryMatchesH100)
{
    for (const char *id : {"gpu", "duplex", "bank-pim"}) {
        const auto cfg = makeClusterConfig(id, mixtralConfig());
        EXPECT_EQ(cfg.deviceSpec.memCapacity, 80ull * kGiB);
    }
}

TEST(StageResultArithmetic, AccumulatesSlices)
{
    StageResult a;
    a.time = 100;
    a.slice(LayerClass::Moe).time = 60;
    a.slice(LayerClass::Moe).energy.dramJ = 1.0;
    StageResult b;
    b.time = 50;
    b.slice(LayerClass::Moe).time = 20;
    b.slice(LayerClass::Moe).energy.computeJ = 0.5;
    a += b;
    EXPECT_EQ(a.time, 150);
    EXPECT_EQ(a.slice(LayerClass::Moe).time, 80);
    EXPECT_DOUBLE_EQ(a.totalEnergyJ(), 1.5);
}

} // namespace
} // namespace duplex
