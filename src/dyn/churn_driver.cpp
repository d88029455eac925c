#include "dyn/churn_driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/partition.hpp"

namespace tbcs::dyn {

ChurnDriver::ChurnDriver(sim::Simulator& sim, ChurnDriverOptions opt)
    : sim_(sim), opt_(opt) {
  if (opt_.check_interval <= 0.0) {
    throw std::invalid_argument("ChurnDriver: check_interval must be > 0");
  }
  if (opt_.repartition) {
    throw std::invalid_argument(
        "ChurnDriver: repartition must be false (the partition is fixed "
        "for the run)");
  }
}

double ChurnDriver::live_cut_fraction() const {
  const graph::Partition* part = sim_.partition();
  if (part == nullptr) return 0.0;
  const auto& edges = sim_.topology().edges();
  std::size_t live = 0;
  std::size_t live_cut = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!sim_.link_up(e)) continue;
    ++live;
    live_cut += part->edge_is_cut(static_cast<std::uint32_t>(e)) ? 1 : 0;
  }
  return live == 0 ? 0.0
                   : static_cast<double>(live_cut) / static_cast<double>(live);
}

void ChurnDriver::run(double t_end) {
  const bool sharded = sim_.shards() > 1;
  double t = sim_.now();
  while (t < t_end) {
    t = std::min(t + opt_.check_interval, t_end);
    sim_.run_until(t);
    if (sharded) ++checks_;
  }
}

double ChurnDriver::last_cut_fraction() const {
  return checks_ > 0 ? live_cut_fraction() : 0.0;
}

}  // namespace tbcs::dyn
