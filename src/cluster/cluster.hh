/**
 * @file
 * Multi-device stage execution.
 *
 * The cluster walks the model's decoder blocks for one batched
 * stage, applying the sharding plan: tensor parallelism inside a
 * node (all devices do identical shards, so one representative
 * device is evaluated), data parallelism across nodes, and expert /
 * expert-tensor parallelism for MoE layers with the matching
 * collectives. It returns wall-clock time plus a per-layer-class
 * time and energy breakdown (Figs. 4(a), 15).
 *
 * A separate HeteroCluster models the Section III-B strawman: two
 * GPUs for high-Op/B work plus two Logic-PIM-only devices owning all
 * expert weights and the KV cache.
 */

#ifndef DUPLEX_CLUSTER_CLUSTER_HH
#define DUPLEX_CLUSTER_CLUSTER_HH

#include <array>

#include "core/duplex_device.hh"
#include "model/kv.hh"
#include "parallel/collectives.hh"
#include "parallel/sharding.hh"
#include "workload/experts.hh"

namespace duplex
{

/** Number of LayerClass values. */
constexpr int kNumLayerClasses = 5;

/** Per-class slice of a stage. */
struct ClassSlice
{
    PicoSec time = 0;
    EnergyBreakdown energy;

    ClassSlice &operator+=(const ClassSlice &other)
    {
        time += other.time;
        energy += other.energy;
        return *this;
    }
};

/** Result of one stage (or an aggregation of stages). */
struct StageResult
{
    PicoSec time = 0;
    std::array<ClassSlice, kNumLayerClasses> byClass{};

    /**
     * Tokens routed to each expert across the stage's MoE layers
     * (empty for dense models); the ExpertRoutingCounts observer
     * folds these into a per-run histogram.
     */
    std::vector<std::int64_t> expertTokens;

    ClassSlice &slice(LayerClass cls)
    {
        return byClass[static_cast<int>(cls)];
    }

    const ClassSlice &slice(LayerClass cls) const
    {
        return byClass[static_cast<int>(cls)];
    }

    /** Total energy over all classes (joules). */
    double totalEnergyJ() const;

    StageResult &operator+=(const StageResult &other);
};

/** Configuration of a homogeneous serving system. */
struct ClusterConfig
{
    ModelConfig model;
    SystemTopology topo;
    HybridDeviceSpec deviceSpec;
    ExpertPlacement expertPlacement = ExpertPlacement::ExpertParallel;
    GatePolicy gatePolicy = GatePolicy::Uniform;
    double zipfS = 1.0;
    std::uint64_t seed = 7;

    /** Activation / scratch reservation per device. */
    Bytes reservedBytesPerDevice = 1 * kGiB;
};

/** Homogeneous cluster: every device runs the same spec. */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    const ClusterConfig &config() const { return cfg_; }
    const ShardingPlan &plan() const { return plan_; }

    /** Execute one batched stage; deterministic given the seed. */
    StageResult executeStage(const StageShape &stage);

    /** KV capacity of the whole system. */
    KvBudget kvBudget() const;

    /** Largest context-token count the KV cache can hold. */
    std::int64_t maxKvTokens() const { return kvBudget().maxKvTokens(cfg_.model); }

    /** Experts routed to the low engine in the last MoE layer. */
    int lastExpertsOnLow() const { return device_.lastExpertsOnLow(); }

  private:
    ClusterConfig cfg_;
    LayerCosts costs_;
    ShardingPlan plan_;
    Device device_;
    ExpertSelector selector_;
    Rng rng_;

    /** Reused across stages: multi-node share of the stage. */
    StageShape nodeShareScratch_;

    /** Reused across MoE layers: per-expert token histogram. */
    std::vector<std::int64_t> histScratch_;

    bool hasDense_ = false; //!< some layer is a dense FFN
    bool hasMoe_ = false;   //!< some layer is an MoE layer

    /** Experts per placement group (device or ET shard). */
    int moeGroupSize_ = 1;

    /** Devices sharing each group's work (ET slices). */
    double moeGroupShards_ = 1.0;

    /**
     * Sequences this node serves under data parallelism. Borrows
     * the original shape when one node serves everything; fills the
     * reused scratch shape otherwise. The returned reference is
     * valid until the next call.
     */
    const StageShape &nodeShare(const StageShape &stage);

    void runMoeLayer(std::int64_t global_tokens,
                     const DeviceTiming &gate_t, PicoSec moe_comm,
                     StageResult &out);
    PicoSec moeCommTime(std::int64_t global_tokens,
                        std::int64_t node_tokens) const;
    void addFc(const OpCost &cost, double scale, StageResult &out);
    void addFcTiming(const DeviceTiming &t, StageResult &out);
};

/** Section III-B heterogeneous system: GPUs + PIM-only devices. */
struct HeteroConfig
{
    ModelConfig model;
    int numGpus = 2;
    int numPimDevices = 2;
    HybridDeviceSpec gpuSpec;  //!< xPU side
    HybridDeviceSpec pimSpec;  //!< provides the low engine
    LinkSpec link;             //!< GPU <-> PIM interconnect
    GatePolicy gatePolicy = GatePolicy::Uniform;
    double zipfS = 1.0;
    std::uint64_t seed = 7;
    Bytes reservedBytesPerDevice = 1 * kGiB;
};

class HeteroCluster
{
  public:
    explicit HeteroCluster(const HeteroConfig &config);

    StageResult executeStage(const StageShape &stage);

    /** KV lives on the PIM devices only. */
    KvBudget kvBudget() const;
    std::int64_t maxKvTokens() const
    {
        return kvBudget().maxKvTokens(cfg_.model);
    }

  private:
    HeteroConfig cfg_;
    LayerCosts costs_;
    EnergyModel gpuEnergy_;
    EnergyModel pimEnergy_;
    ExpertSelector selector_;
    Rng rng_;

    /** Reused across MoE layers: per-expert token histogram. */
    std::vector<std::int64_t> histScratch_;

    bool hasDense_ = false; //!< some layer is a dense FFN
    bool hasMoe_ = false;   //!< some layer is an MoE layer

    /** Unsharded expert-FFN price on the PIM devices' engine. */
    ExpertPriceTable pimPrice_;
};

} // namespace duplex

#endif // DUPLEX_CLUSTER_CLUSTER_HH
