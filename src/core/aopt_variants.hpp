// Convenience factories for the A^opt configurations discussed in the
// paper, plus a one-stop include for the variant headers.
#pragma once

#include <memory>

#include "core/aopt.hpp"

namespace tbcs::core {

/// Plain A^opt (Algorithms 1-4).
std::unique_ptr<AoptNode> make_aopt(const SyncParams& params);

/// Unbounded-rate variant: applies R_v instantly instead of raising the
/// logical clock rate (remark after Theorem 5.10; beta = infinity).
std::unique_ptr<AoptNode> make_jump_aopt(const SyncParams& params);

/// Section 6.1: at least H0 hardware time between sends; forwards of
/// larger L^max estimates are queued until the spacing allows.  Trades a
/// Theta(eps D H0) increase of the global skew for a hard lower bound on
/// the message spacing.
std::unique_ptr<AoptNode> make_bounded_frequency_aopt(const SyncParams& params);

/// Section 8.3: delays lie in [t1, t1 + delay_hat]; the known minimum
/// delay t1 is added to every received value.
std::unique_ptr<AoptNode> make_offset_delay_aopt(const SyncParams& params,
                                                 double t1);

/// The configs make_jump_aopt and make_bounded_frequency_aopt build their
/// node from, for callers that share one config among many nodes.
std::shared_ptr<const AoptConfig> jump_aopt_config(const SyncParams& params);
std::shared_ptr<const AoptConfig> bounded_frequency_aopt_config(
    const SyncParams& params);

}  // namespace tbcs::core
