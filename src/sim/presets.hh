/**
 * @file
 * System presets (Section VI): the cluster-level configurations
 * behind the registered serving systems.
 *
 * Default device counts: Mixtral/OPT/Llama3 one node of four
 * devices; GLaM one node of eight; Grok1 two nodes of eight. The
 * 2xGPU comparison doubles devices by first filling nodes to eight,
 * then adding nodes.
 *
 * To *run* a system, use the SystemRegistry (sim/registry.hh):
 * makeSystem("duplex") builds a ready ServingSystem. The builders
 * below are the config layer the registry factories (and the
 * ablation studies, which tweak individual fields) are written
 * against.
 */

#ifndef DUPLEX_SIM_PRESETS_HH
#define DUPLEX_SIM_PRESETS_HH

#include <string>

#include "cluster/cluster.hh"

namespace duplex
{

/** Device count defaults per model. */
SystemTopology defaultTopology(const ModelConfig &model,
                               bool doubled = false);

/**
 * Cluster configuration of a homogeneous registered system ("gpu",
 * "duplex-pe-et", ...), for the registry factories and for callers
 * that tweak config fields (gate policy, ablation studies) before
 * building the Cluster themselves — everything else should go
 * through makeSystem. Fatal for ids without a homogeneous cluster
 * config (hetero, the split variants).
 */
ClusterConfig makeClusterConfig(const std::string &system_id,
                                const ModelConfig &model,
                                std::uint64_t seed = 7);

/** Hetero system: GPUs + PIM-only devices over NVLink. */
HeteroConfig makeHeteroConfig(const ModelConfig &model,
                              std::uint64_t seed = 7);

} // namespace duplex

#endif // DUPLEX_SIM_PRESETS_HH
