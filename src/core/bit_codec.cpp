#include "core/bit_codec.hpp"

#include <algorithm>
#include <cmath>

namespace tbcs::core {

namespace {

/// Bits to transmit a non-negative integer in [0, max_value].
std::uint64_t bits_for(std::uint64_t max_value) {
  std::uint64_t bits = 1;
  while ((1ULL << bits) - 1 < max_value) ++bits;
  return bits;
}

}  // namespace

BitCodedAoptNode::BitCodedAoptNode(const SyncParams& params)
    : AoptNode(params, [] {
        AoptOptions o;
        o.bounded_frequency = true;
        return o;
      }()) {
  lmax_cap_units_ = static_cast<int>(
      std::ceil((1.0 + params.eps_hat) * (1.0 + params.mu) /
                (1.0 - params.eps_hat)));
}

void BitCodedAoptNode::on_wake(sim::NodeServices& sv,
                               const sim::Message* by_message) {
  AoptNode::on_wake(sv, by_message);
  // The wake-up send transmitted absolute values (the initialization
  // flood); from now on only deltas go on the wire.
  sent_logical_ = 0.0;  // L is 0 at wake
  sent_lmax_ = Lmax_;
  codec_primed_ = true;
}

sim::Message BitCodedAoptNode::make_message(sim::NodeServices& sv) const {
  sim::Message m;
  m.sender = sv.id();
  if (!codec_primed_) {
    // Initialization message: absolute values (not bit-accounted).
    m.logical = L_;
    m.logical_max = Lmax_;
    return m;
  }

  const double q = quantum();
  // (a) Logical clock: progress since last announcement, floored to a
  // multiple of q.  The receiver reconstructs sent_logical_ exactly.
  const double delta = std::max(0.0, L_ - sent_logical_);
  const auto delta_units = static_cast<std::uint64_t>(std::floor(delta / q));
  sent_logical_ += static_cast<double>(delta_units) * q;
  m.logical = sent_logical_;

  // (b) L^max: announce at most lmax_cap_units_ * H0; carry the rest.
  const double lmax_delta = std::max(0.0, Lmax_ - sent_lmax_);
  const auto lmax_units = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(std::floor(lmax_delta / params().h0)),
      static_cast<std::uint64_t>(lmax_cap_units_));
  sent_lmax_ += static_cast<double>(lmax_units) * params().h0;
  m.logical_max = sent_lmax_;

  // Bit accounting.  The delta of L between sends spaced >= H0 apart is at
  // most (1+mu) * (growth of H) and the spacing timer bounds how stale the
  // send can be; we charge the bits actually needed for this message's
  // delta (tests check the O(log(1/mu)) scale).
  const std::uint64_t bits =
      bits_for(delta_units) + bits_for(static_cast<std::uint64_t>(lmax_cap_units_));
  ++coded_messages_;
  total_bits_ += bits;
  max_bits_ = std::max(max_bits_, bits);
  return m;
}

void BitCodedAoptNode::decode_message(const sim::Message& m, double& logical,
                                      double& logical_max) const {
  // The wire already carries reconstructed absolute values (the encoder
  // quantized them); nothing further to do.
  logical = m.logical;
  logical_max = m.logical_max;
}

}  // namespace tbcs::core
