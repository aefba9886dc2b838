#include "cluster/cluster.hh"

#include <algorithm>

#include "common/log.hh"

namespace duplex
{

double
StageResult::totalEnergyJ() const
{
    double total = 0.0;
    for (const auto &s : byClass)
        total += s.energy.totalJ();
    return total;
}

StageResult &
StageResult::operator+=(const StageResult &other)
{
    time += other.time;
    for (int i = 0; i < kNumLayerClasses; ++i)
        byClass[i] += other.byClass[i];
    if (expertTokens.size() < other.expertTokens.size())
        expertTokens.resize(other.expertTokens.size(), 0);
    for (std::size_t e = 0; e < other.expertTokens.size(); ++e)
        expertTokens[e] += other.expertTokens[e];
    return *this;
}

Cluster::Cluster(const ClusterConfig &config)
    : cfg_(config),
      costs_(config.model),
      plan_(makeShardingPlan(config.model, config.topo,
                             config.expertPlacement)),
      device_(config.deviceSpec),
      selector_(std::max(1, config.model.numExperts),
                std::max(1, config.model.topK), config.gatePolicy,
                config.zipfS),
      rng_(config.seed)
{
    const ModelConfig &m = cfg_.model;
    const int moe_layers = m.numMoeLayers();
    hasDense_ = m.numLayers > moe_layers;
    hasMoe_ = moe_layers > 0;
    if (m.numExperts == 0)
        return;

    // Group the experts the way the plan places them.
    if (plan_.experts == ExpertPlacement::ExpertParallel)
        moeGroupSize_ = std::max(1, plan_.expertsPerDevice);
    else
        moeGroupSize_ = m.numExperts / plan_.expertEpNodes;
    moeGroupShards_ = static_cast<double>(plan_.expertTpDegree);

    device_.setExpertCost(costs_.expertFfnAffine(),
                          plan_.expertShardFraction());
}

KvBudget
Cluster::kvBudget() const
{
    KvBudget budget;
    budget.deviceCapacity = cfg_.deviceSpec.memCapacity;
    budget.numDevices = cfg_.topo.totalDevices();
    budget.weightBytesTotal =
        weightBytesPerDevice(cfg_.model, cfg_.topo, plan_) *
        static_cast<Bytes>(budget.numDevices);
    budget.reservedBytes = cfg_.reservedBytesPerDevice;
    return budget;
}

const StageShape &
Cluster::nodeShare(const StageShape &stage)
{
    if (cfg_.topo.numNodes <= 1)
        return stage;
    StageShape &share = nodeShareScratch_;
    share.decodeContexts.clear();
    share.prefillLengths.clear();
    share.agg = {};
    for (std::size_t i = 0; i < stage.decodeContexts.size(); ++i)
        if (i % cfg_.topo.numNodes == 0) {
            share.decodeContexts.push_back(stage.decodeContexts[i]);
            share.agg.addDecode(stage.decodeContexts[i]);
        }
    for (std::size_t i = 0; i < stage.prefillLengths.size(); ++i)
        if (i % cfg_.topo.numNodes == 0) {
            share.prefillLengths.push_back(stage.prefillLengths[i]);
            share.agg.addPrefill(stage.prefillLengths[i]);
        }
    share.aggValid = true;
    return share;
}

void
Cluster::addFc(const OpCost &cost, double scale, StageResult &out)
{
    addFcTiming(device_.runHighOpb(cost.scaled(scale)), out);
}

void
Cluster::addFcTiming(const DeviceTiming &t, StageResult &out)
{
    out.time += t.time;
    auto &slice = out.slice(LayerClass::Fc);
    slice.time += t.time;
    const double devices =
        static_cast<double>(plan_.tpDegree) * plan_.dpDegree;
    slice.energy.dramJ += t.energy.dramJ * devices;
    slice.energy.computeJ += t.energy.computeJ * devices;
}

void
Cluster::runMoeLayer(std::int64_t global_tokens,
                     const DeviceTiming &gate_t, PicoSec moe_comm,
                     StageResult &out)
{
    selector_.sampleInto(rng_, global_tokens, histScratch_);
    const std::vector<std::int64_t> &hist = histScratch_;
    const ModelConfig &m = cfg_.model;

    if (out.expertTokens.size() <
        static_cast<std::size_t>(m.numExperts))
        out.expertTokens.resize(m.numExperts, 0);
    for (int e = 0; e < m.numExperts; ++e)
        out.expertTokens[e] += hist[e];

    // One device call for the whole layer, priced straight from
    // the histogram.
    const DeviceTiming moe = device_.runMoeGroups(
        hist, moeGroupSize_, moeGroupShards_);

    out.time += gate_t.time + moe.time;
    auto &slice = out.slice(LayerClass::Moe);
    slice.time += gate_t.time + moe.time;
    const double devices =
        static_cast<double>(plan_.tpDegree) * plan_.dpDegree;
    slice.energy.dramJ +=
        moe.energy.dramJ + gate_t.energy.dramJ * devices;
    slice.energy.computeJ +=
        moe.energy.computeJ + gate_t.energy.computeJ * devices;

    out.time += moe_comm;
    out.slice(LayerClass::Communication).time += moe_comm;
}

PicoSec
Cluster::moeCommTime(std::int64_t global_tokens,
                     std::int64_t node_tokens) const
{
    // Collectives: token dispatch + combine (all-to-all) for expert
    // parallelism; a single all-reduce for expert tensor parallelism
    // (Section V-B).
    const ModelConfig &m = cfg_.model;
    PicoSec comm = 0;
    const Bytes token_payload =
        static_cast<Bytes>(global_tokens) * m.topK * m.hidden *
        kFp16Bytes;
    if (plan_.experts == ExpertPlacement::ExpertParallel) {
        const Bytes per_device =
            token_payload / cfg_.topo.totalDevices();
        const LinkSpec &link = plan_.expertEpNodes > 1
                                   ? cfg_.topo.interNode
                                   : cfg_.topo.intraNode;
        const int peers = plan_.expertEpNodes > 1
                              ? cfg_.topo.numNodes
                              : cfg_.topo.devicesPerNode;
        comm += 2 * allToAllTime(per_device, peers, link);
    } else {
        const Bytes reduce_bytes = static_cast<Bytes>(node_tokens) *
                                   m.hidden * kFp16Bytes;
        comm += allReduceTime(reduce_bytes, plan_.tpDegree,
                              cfg_.topo.intraNode);
        if (plan_.expertEpNodes > 1) {
            const Bytes per_node = token_payload / cfg_.topo.numNodes;
            comm += 2 * allToAllTime(per_node, cfg_.topo.numNodes,
                                     cfg_.topo.interNode);
        }
    }
    return comm;
}

StageResult
Cluster::executeStage(const StageShape &stage)
{
    StageResult out;
    const StageAggregates stage_agg = stage.aggregates();
    const std::int64_t global_tokens = stage_agg.totalTokens();
    if (global_tokens == 0)
        return out;
    const StageShape &node = nodeShare(stage);
    const StageAggregates agg =
        &node == &stage ? stage_agg : node.aggregates();
    const std::int64_t node_tokens = agg.totalTokens();

    const ModelConfig &m = cfg_.model;
    const double tp_shard = plan_.tpShardFraction();
    const double devices =
        static_cast<double>(plan_.tpDegree) * plan_.dpDegree;

    // Token embedding.
    addFc(costs_.embedding(node_tokens), tp_shard, out);

    const Bytes reduce_bytes =
        static_cast<Bytes>(node_tokens) * m.hidden * kFp16Bytes;

    // Every per-layer cost below is layer-invariant, so it is
    // computed once and its DeviceTiming re-accumulated per layer
    // — bit-identical to the former per-layer recomputation, since
    // the devices are stateless for these groups.
    const DeviceTiming qkv_t =
        device_.runHighOpb(costs_.qkv(node_tokens).scaled(tp_shard));
    const AttentionTiming at = device_.runAttention(
        costs_.attentionDecode(agg).scaled(tp_shard),
        costs_.attentionPrefill(agg).scaled(tp_shard));
    const DeviceTiming proj_t = device_.runHighOpb(
        costs_.projection(node_tokens).scaled(tp_shard));
    const DeviceTiming elem_t = device_.runHighOpb(
        costs_.elementwise(node_tokens).scaled(tp_shard));
    const PicoSec all_reduce = allReduceTime(
        reduce_bytes, plan_.tpDegree, cfg_.topo.intraNode);

    DeviceTiming ffn_t;
    if (hasDense_)
        ffn_t = device_.runHighOpb(
            costs_.denseFfn(node_tokens).scaled(tp_shard));
    DeviceTiming gate_t;
    PicoSec moe_comm = 0;
    if (hasMoe_) {
        // Gate runs on every device over the node's tokens (DP
        // ceiling split, as the seed modeled it).
        const std::int64_t moe_node_tokens =
            (global_tokens + plan_.dpDegree - 1) / plan_.dpDegree;
        gate_t = device_.runHighOpb(
            costs_.gate(moe_node_tokens).scaled(tp_shard));
        moe_comm = moeCommTime(global_tokens, moe_node_tokens);
    }

    for (int layer = 0; layer < m.numLayers; ++layer) {
        // QKV generation.
        addFcTiming(qkv_t, out);

        // Attention (decode + prefill groups, possibly co-processed).
        out.time += at.composed;
        auto &dec = out.slice(LayerClass::AttentionDecode);
        dec.time += at.decode.time;
        dec.energy.dramJ += at.decode.energy.dramJ * devices;
        dec.energy.computeJ += at.decode.energy.computeJ * devices;
        auto &pre = out.slice(LayerClass::AttentionPrefill);
        pre.time += at.prefill.time;
        pre.energy.dramJ += at.prefill.energy.dramJ * devices;
        pre.energy.computeJ += at.prefill.energy.computeJ * devices;

        // Output projection + residual/layer norms.
        addFcTiming(proj_t, out);
        addFcTiming(elem_t, out);

        // All-reduce after the attention block; FFN or MoE (the
        // expert draw is the only per-layer randomness); all-reduce
        // after the FFN/MoE block output.
        if (m.isMoeLayer(layer)) {
            runMoeLayer(global_tokens, gate_t, moe_comm, out);
        } else {
            addFcTiming(ffn_t, out);
        }
        out.time += 2 * all_reduce;
        out.slice(LayerClass::Communication).time += 2 * all_reduce;
    }

    // LM head: one next-token logit per decode sequence and per
    // prefill sequence.
    const std::int64_t head_tokens = agg.numDecode + agg.numPrefill;
    addFc(costs_.lmHead(head_tokens), tp_shard, out);

    return out;
}

HeteroCluster::HeteroCluster(const HeteroConfig &config)
    : cfg_(config),
      costs_(config.model),
      gpuEnergy_(config.gpuSpec.energyParams),
      pimEnergy_(config.pimSpec.energyParams),
      selector_(std::max(1, config.model.numExperts),
                std::max(1, config.model.topK), config.gatePolicy,
                config.zipfS),
      rng_(config.seed)
{
    fatalIf(!cfg_.pimSpec.hasLowEngine,
            "HeteroCluster: PIM devices need a low engine");
    fatalIf(cfg_.numGpus < 1 || cfg_.numPimDevices < 1,
            "HeteroCluster: needs at least one GPU and one PIM device");
    fatalIf(cfg_.model.numExperts % cfg_.numPimDevices != 0,
            "HeteroCluster: experts must split evenly over the PIM "
            "devices");
    const int moe_layers = cfg_.model.numMoeLayers();
    hasDense_ = cfg_.model.numLayers > moe_layers;
    hasMoe_ = moe_layers > 0;
    if (cfg_.model.numExperts > 0)
        pimPrice_ = ExpertPriceTable(
            cfg_.pimSpec.low, cfg_.pimSpec.lowPath,
            cfg_.pimSpec.lowCls, pimEnergy_, costs_.expertFfnAffine(),
            1.0);
}

KvBudget
HeteroCluster::kvBudget() const
{
    // Expert weights and KV cache live on the PIM devices.
    KvBudget budget;
    budget.deviceCapacity = cfg_.pimSpec.memCapacity;
    budget.numDevices = cfg_.numPimDevices;
    const ModelConfig &m = cfg_.model;
    double expert_params = 0.0;
    if (m.numExperts > 0) {
        expert_params = static_cast<double>(m.numMoeLayers()) *
                        m.numExperts * m.ffnParams();
    }
    budget.weightBytesTotal =
        static_cast<Bytes>(expert_params) * kFp16Bytes;
    budget.reservedBytes = cfg_.reservedBytesPerDevice;
    return budget;
}

StageResult
HeteroCluster::executeStage(const StageShape &stage)
{
    StageResult out;
    const StageAggregates agg = stage.aggregates();
    const std::int64_t tokens = agg.totalTokens();
    if (tokens == 0)
        return out;

    const ModelConfig &m = cfg_.model;
    const double gpu_shard = 1.0 / cfg_.numGpus;
    const double pim_shard = 1.0 / cfg_.numPimDevices;

    auto time_gpu = [&](const OpCost &cost) {
        return engineRun(cfg_.gpuSpec.xpu, cfg_.gpuSpec.xpuPath,
                         cfg_.gpuSpec.xpuCls, gpuEnergy_,
                         cost.scaled(gpu_shard));
    };
    auto add_gpu = [&](const DeviceTiming &t, LayerClass cls) {
        out.time += t.time;
        auto &slice = out.slice(cls);
        slice.time += t.time;
        slice.energy.dramJ += t.energy.dramJ * cfg_.numGpus;
        slice.energy.computeJ += t.energy.computeJ * cfg_.numGpus;
    };
    auto add_pim = [&](const DeviceTiming &t, LayerClass cls) {
        out.time += t.time;
        auto &slice = out.slice(cls);
        slice.time += t.time;
        slice.energy.dramJ += t.energy.dramJ * cfg_.numPimDevices;
        slice.energy.computeJ +=
            t.energy.computeJ * cfg_.numPimDevices;
    };

    const Bytes activation_bytes =
        static_cast<Bytes>(tokens) * m.hidden * kFp16Bytes;

    add_gpu(time_gpu(costs_.embedding(tokens)), LayerClass::Fc);

    // Layer-invariant timings, computed once per stage (the engine
    // evaluation is stateless; re-accumulating the same DeviceTiming
    // is bit-identical to the former per-layer recomputation).
    const DeviceTiming qkv_t = time_gpu(costs_.qkv(tokens));
    const DeviceTiming attn_dec_t = engineRun(
        cfg_.pimSpec.low, cfg_.pimSpec.lowPath, cfg_.pimSpec.lowCls,
        pimEnergy_, costs_.attentionDecode(agg).scaled(pim_shard));
    // Prefill attention stays on the GPUs (KV is streamed over).
    const DeviceTiming attn_pre_t =
        time_gpu(costs_.attentionPrefill(agg));
    const DeviceTiming proj_t = time_gpu(costs_.projection(tokens));
    const DeviceTiming elem_t = time_gpu(costs_.elementwise(tokens));
    DeviceTiming ffn_t;
    if (hasDense_)
        ffn_t = time_gpu(costs_.denseFfn(tokens));
    DeviceTiming gate_t;
    if (hasMoe_)
        gate_t = time_gpu(costs_.gate(tokens));
    const PicoSec attn_comm = 2 * p2pTime(activation_bytes, cfg_.link);

    for (int layer = 0; layer < m.numLayers; ++layer) {
        add_gpu(qkv_t, LayerClass::Fc);

        // Activations cross to the PIM devices for attention and
        // return for the projection.
        PicoSec comm = attn_comm;
        add_pim(attn_dec_t, LayerClass::AttentionDecode);
        add_gpu(attn_pre_t, LayerClass::AttentionPrefill);
        add_gpu(proj_t, LayerClass::Fc);
        add_gpu(elem_t, LayerClass::Fc);

        if (m.isMoeLayer(layer)) {
            // The PIM devices own every expert, in all stages.
            add_gpu(gate_t, LayerClass::Moe);
            comm += attn_comm;
            selector_.sampleInto(rng_, tokens, histScratch_);
            const std::vector<std::int64_t> &hist = histScratch_;
            if (out.expertTokens.size() <
                static_cast<std::size_t>(m.numExperts))
                out.expertTokens.resize(m.numExperts, 0);
            PicoSec worst = 0;
            EnergyBreakdown moe_energy;
            const int per_dev = m.numExperts / cfg_.numPimDevices;
            for (int d = 0; d < cfg_.numPimDevices; ++d) {
                PicoSec dev_time = cfg_.pimSpec.low.dispatchOverhead;
                for (int e = d * per_dev; e < (d + 1) * per_dev;
                     ++e) {
                    out.expertTokens[e] += hist[e];
                    if (hist[e] == 0)
                        continue;
                    const DeviceTiming t = pimPrice_.at(hist[e]);
                    dev_time += t.time;
                    moe_energy += t.energy;
                }
                worst = std::max(worst, dev_time);
            }
            out.time += worst;
            auto &slice = out.slice(LayerClass::Moe);
            slice.time += worst;
            slice.energy += moe_energy;
        } else {
            add_gpu(ffn_t, LayerClass::Fc);
        }
        out.time += comm;
        out.slice(LayerClass::Communication).time += comm;
    }
    const std::int64_t head_tokens = agg.numDecode + agg.numPrefill;
    add_gpu(time_gpu(costs_.lmHead(head_tokens)), LayerClass::Fc);
    return out;
}

} // namespace duplex
