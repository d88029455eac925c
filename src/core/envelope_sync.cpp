#include "core/envelope_sync.hpp"

namespace tbcs::core {

std::shared_ptr<const AoptConfig> envelope_aopt_config(const SyncParams& params) {
  AoptOptions o;
  o.envelope_mode = true;
  o.lmax_rate_factor =
      (1.0 - params.eps_hat) / (1.0 + params.eps_hat);
  return std::make_shared<const AoptConfig>(params, o);
}

std::unique_ptr<AoptNode> make_envelope_aopt(const SyncParams& params) {
  return std::make_unique<AoptNode>(envelope_aopt_config(params));
}

}  // namespace tbcs::core
