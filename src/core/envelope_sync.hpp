// Hardware-clock envelope variant (Section 8.6).
//
// Condition (1) is sharpened to
//   min_w H_w(t) <= L_v(t) <= max_w H_w(t):
// logical clocks must stay between the smallest and the largest hardware
// clock value in the system.  A node achieves this by increasing L^max at
// the reduced rate (1 - eps_hat) h_v / (1 + eps_hat) whenever L^max
// exceeds its own hardware clock, and by never raising L beyond L^max.
#pragma once

#include <memory>

#include "core/aopt.hpp"

namespace tbcs::core {

/// A^opt configured for the hardware-clock envelope condition.
std::unique_ptr<AoptNode> make_envelope_aopt(const SyncParams& params);
/// The config make_envelope_aopt builds its node from, for sharing.
std::shared_ptr<const AoptConfig> envelope_aopt_config(const SyncParams& params);

}  // namespace tbcs::core
