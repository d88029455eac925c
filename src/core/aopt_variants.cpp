#include "core/aopt_variants.hpp"

namespace tbcs::core {

std::unique_ptr<AoptNode> make_aopt(const SyncParams& params) {
  return std::make_unique<AoptNode>(params);
}

std::shared_ptr<const AoptConfig> jump_aopt_config(const SyncParams& params) {
  AoptOptions o;
  o.jump_mode = true;
  return std::make_shared<const AoptConfig>(params, o);
}

std::shared_ptr<const AoptConfig> bounded_frequency_aopt_config(
    const SyncParams& params) {
  AoptOptions o;
  o.bounded_frequency = true;
  return std::make_shared<const AoptConfig>(params, o);
}

std::unique_ptr<AoptNode> make_jump_aopt(const SyncParams& params) {
  return std::make_unique<AoptNode>(jump_aopt_config(params));
}

std::unique_ptr<AoptNode> make_bounded_frequency_aopt(const SyncParams& params) {
  return std::make_unique<AoptNode>(bounded_frequency_aopt_config(params));
}

std::unique_ptr<AoptNode> make_offset_delay_aopt(const SyncParams& params,
                                                 double t1) {
  AoptOptions o;
  o.value_offset = t1;
  return std::make_unique<AoptNode>(params, o);
}

}  // namespace tbcs::core
