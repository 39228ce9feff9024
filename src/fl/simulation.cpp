#include "fl/simulation.h"

namespace oasis::fl {

std::vector<std::uint64_t> Simulation::run_round() {
  std::vector<std::uint64_t> ids;
  ShardedSimulation::run_round(&ids);
  return ids;
}

}  // namespace oasis::fl
