#include "sim/registry.hh"

#include "sim/split_system.hh"

namespace duplex
{

namespace
{

/** A homogeneous (Cluster-backed) preset. */
void
addClusterSystem(SystemRegistry &registry, const std::string &id,
                 const std::string &display,
                 const std::string &summary)
{
    registry.add(id, display, summary,
                 [id, display](const ModelConfig &model,
                               const SystemOptions &opts) {
                     return std::make_unique<ClusterSystem>(
                         display,
                         makeClusterConfig(id, model, opts.seed));
                 });
}

/** A Splitwise-style disaggregated variant. */
void
addSplitSystem(SystemRegistry &registry, const std::string &id,
               const std::string &display, const std::string &summary,
               SplitSpec spec)
{
    registry.add(id, display, summary,
                 [display, spec](const ModelConfig &model,
                                 const SystemOptions &opts) {
                     return std::make_unique<SplitSystem>(
                         display, model, opts.seed, spec);
                 });
}

void
registerPaperSystems(SystemRegistry &registry)
{
    addClusterSystem(registry, "gpu", "GPU",
                     "H100-class baseline, 4-8 devices per node");
    addClusterSystem(registry, "gpu-2x", "2xGPU",
                     "GPU baseline with twice the devices");
    addClusterSystem(registry, "duplex", "Duplex",
                     "Logic-PIM low engine, Op/B-driven selection");
    addClusterSystem(registry, "duplex-pe", "Duplex+PE",
                     "Duplex + expert/attention co-processing");
    addClusterSystem(
        registry, "duplex-pe-et", "Duplex+PE+ET",
        "Duplex + co-processing + tensor-parallel experts");
    addClusterSystem(registry, "bank-pim", "Bank-PIM",
                     "hybrid device with a Bank-PIM low engine");
    addClusterSystem(registry, "bankgroup-pim", "BankGroup-PIM",
                     "hybrid device with a BankGroup-PIM low engine");
    registry.add(
        "hetero", "Hetero",
        "2 GPUs + 2 Logic-PIM devices over NVLink (Section III-B)",
        [](const ModelConfig &model, const SystemOptions &opts) {
            return std::make_unique<HeteroSystem>(
                "Hetero", makeHeteroConfig(model, opts.seed));
        });
    addSplitSystem(registry, "duplex-split", "Duplex-Split",
                   "Splitwise-style prefill/decode split (Fig. 16)",
                   SplitSpec{});
    addSplitSystem(
        registry, "duplex-split-contended", "Duplex-Split-C",
        "symmetric split, KV migrations contend FIFO for NVLink",
        SplitSpec{0, 0, /*contendedKvTransfer=*/true});
    addSplitSystem(registry, "duplex-split-2p6d", "Duplex-Split-2P6D",
                   "prefill-light split: 2 prefill + 6 decode "
                   "devices, contended KV link",
                   SplitSpec{2, 6, true});
    addSplitSystem(registry, "duplex-split-6p2d", "Duplex-Split-6P2D",
                   "prefill-heavy split: 6 prefill + 2 decode "
                   "devices, contended KV link",
                   SplitSpec{6, 2, true});
}

} // namespace

template <>
SystemRegistry &
SystemRegistry::instance()
{
    static SystemRegistry *registry = [] {
        auto *r = new SystemRegistry("system");
        registerPaperSystems(*r);
        return r;
    }();
    return *registry;
}

std::unique_ptr<ServingSystem>
makeSystem(const std::string &id, const ModelConfig &model,
           const SystemOptions &opts)
{
    return SystemRegistry::instance().make(id, model, opts);
}

std::vector<std::string>
registeredSystems()
{
    return SystemRegistry::instance().ids();
}

void
registerServingSystem(const std::string &id,
                      const std::string &display,
                      const std::string &summary,
                      SystemFactory factory)
{
    SystemRegistry::instance().add(id, display, summary,
                                   std::move(factory));
}

} // namespace duplex
