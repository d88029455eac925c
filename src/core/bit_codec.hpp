// Bounded-bit message encoding (Section 6.2).
//
// Plain A^opt sends unbounded clock values.  The paper shows the bit
// complexity drops to O(log(1/mu)) per message by
//   (a) transmitting the *progress* of L since the last send, quantized
//       down to multiples of q = mu * H0 (the quantization error is
//       absorbed by enlarging kappa by Theta(mu H0)), and
//   (b) limiting the announced increase of L^max to
//       cap = ceil((1+eps)(1+mu)/(1-eps)) multiples of H0 per message,
//       carrying any remainder over to subsequent messages (L^max itself
//       never increases faster than rate 1+eps, so the pipeline catches
//       up).
//
// BitCodedAoptNode simulates the wire format faithfully: the values a
// receiver acts on are exactly the values a real decoder would
// reconstruct, and the per-message bit cost is accounted.  Messages are
// sent with spacing >= H0 (bounded_frequency), the premise under which
// Section 6.2 derives the constant-bit variant.
#pragma once

#include <cstdint>

#include "core/aopt.hpp"

namespace tbcs::core {

class BitCodedAoptNode final : public AoptNode {
 public:
  explicit BitCodedAoptNode(const SyncParams& params);

  // ---- accounting -----------------------------------------------------------
  std::uint64_t coded_messages() const { return coded_messages_; }
  std::uint64_t total_payload_bits() const { return total_bits_; }
  std::uint64_t max_payload_bits() const { return max_bits_; }
  double mean_payload_bits() const {
    return coded_messages_ == 0
               ? 0.0
               : static_cast<double>(total_bits_) / coded_messages_;
  }

  /// Quantum for the logical-clock delta: q = mu * H0.
  double quantum() const { return params().mu * params().h0; }

  /// Cap (in multiples of H0) on the L^max increase announced per message.
  int lmax_cap_units() const { return lmax_cap_units_; }

  void on_wake(sim::NodeServices& sv, const sim::Message* by_message) override;

 protected:
  sim::Message make_message(sim::NodeServices& sv) const override;
  void decode_message(const sim::Message& m, double& logical,
                      double& logical_max) const override;

 private:
  int lmax_cap_units_ = 1;
  // Sender-side codec state (mutable: make_message is const in the node
  // interface but encoding advances the accumulators).
  mutable double sent_logical_ = 0.0;   // cumulative quantized L announced
  mutable double sent_lmax_ = 0.0;      // cumulative L^max announced
  mutable bool codec_primed_ = false;   // first message is the init flood
  mutable std::uint64_t coded_messages_ = 0;
  mutable std::uint64_t total_bits_ = 0;
  mutable std::uint64_t max_bits_ = 0;
};

}  // namespace tbcs::core
