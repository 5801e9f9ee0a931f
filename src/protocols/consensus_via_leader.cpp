#include "protocols/consensus_via_leader.h"

#include "sim/soa.h"

namespace dynet::proto {

namespace {
LeaderConfig withCarry(LeaderConfig config) {
  config.carry_value = true;
  return config;
}
}  // namespace

ConsensusViaLeaderFactory::ConsensusViaLeaderFactory(
    LeaderConfig config, std::uint64_t master_seed,
    std::vector<std::uint64_t> inputs)
    : inner_(withCarry(config), master_seed, std::move(inputs)) {}

std::unique_ptr<sim::Process> ConsensusViaLeaderFactory::create(
    sim::NodeId node, sim::NodeId num_nodes) const {
  return inner_.create(node, num_nodes);
}

std::unique_ptr<sim::SoAModel> ConsensusViaLeaderFactory::createSoA(
    sim::NodeId num_nodes) const {
  return inner_.createSoA(num_nodes);
}

}  // namespace dynet::proto
