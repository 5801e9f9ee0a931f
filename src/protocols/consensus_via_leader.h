// CONSENSUS with unknown diameter via LEADERELECT (paper §7).
//
// "Since CONSENSUS can be trivially reduced to LEADERELECT, such an upper
// bound applies to CONSENSUS as well": the leader's input bit rides along
// with the leader announcement, and every node decides that bit.
// Termination and agreement follow from leader election; validity holds
// because the decided bit is the leader's own input.
#pragma once

#include <memory>
#include <vector>

#include "protocols/leader_unknown_d.h"

namespace dynet::proto {

class ConsensusViaLeaderFactory : public sim::ProcessFactory {
 public:
  /// `config.carry_value` is forced on; inputs are the consensus inputs.
  ConsensusViaLeaderFactory(LeaderConfig config, std::uint64_t master_seed,
                            std::vector<std::uint64_t> inputs);

  std::unique_ptr<sim::Process> create(sim::NodeId node,
                                       sim::NodeId num_nodes) const override;
  /// The inner LeaderElectFactory's SoA model (sim/process_array.h).
  std::unique_ptr<sim::SoAModel> createSoA(
      sim::NodeId num_nodes) const override;

 private:
  LeaderElectFactory inner_;
};

}  // namespace dynet::proto
