#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tbcs::core {

namespace {
constexpr double kSlack = 1e-9;  // tolerance for >= comparisons on doubles
}

double SyncParams::sigma(double eps) const {
  if (eps <= 0.0) return 1e18;  // drift-free clocks: unbounded base
  const double ratio = mu * (1.0 - eps) / (7.0 * eps);
  if (ratio >= 1e15) return 1e15;
  return std::floor(ratio + kSlack);
}

bool SyncParams::valid(std::string* why) const {
  const auto fail = [why](const std::string& reason) {
    if (why) *why = reason;
    return false;
  };
  // Each check passes only a finite value in range: NaN fails every
  // comparison, so a check written as "x <= 0 -> fail" would let it by.
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(delay_hat)) return fail("delay_hat must be finite and positive");
  if (!(eps_hat > 0.0 && eps_hat < 1.0)) return fail("eps_hat must lie in (0, 1)");
  if (!positive(mu)) return fail("mu must be finite and positive");
  if (!positive(h0)) return fail("h0 must be finite and positive");
  if (!std::isfinite(kappa)) return fail("kappa must be finite");
  if (sigma(eps_hat) < 2.0) {
    return fail("Inequality (6) violated: need mu >= 14 eps_hat / (1 - eps_hat)");
  }
  if (kappa + kSlack < min_kappa()) {
    return fail("Inequality (4) violated: kappa < 2((1+eps)(1+mu)T + H0_bar)");
  }
  return true;
}

void SyncParams::check() const {
  std::string why;
  if (!valid(&why)) throw std::invalid_argument("SyncParams: " + why);
}

double SyncParams::global_skew_bound(int diameter, double eps,
                                     double delay) const {
  return (1.0 + eps) * diameter * delay + 2.0 * eps / (1.0 + eps) * h0;
}

double SyncParams::local_skew_bound(int diameter, double eps,
                                    double delay) const {
  const double g = global_skew_bound(diameter, eps, delay);
  const double s = sigma(eps);
  const double levels =
      std::max(0.0, std::ceil(std::log(2.0 * g / kappa) / std::log(s) - kSlack));
  return kappa * (levels + 0.5);
}

double SyncParams::distance_skew_bound(int distance, int diameter, double eps,
                                       double delay) const {
  const double g = global_skew_bound(diameter, eps, delay);
  const double sig = sigma(eps);
  // Smallest s >= 0 with C_s = (2 G / kappa) sigma^{-s} <= distance.
  const double need = 2.0 * g / (kappa * std::max(1, distance));
  const double s =
      need <= 1.0 ? 0.0 : std::ceil(std::log(need) / std::log(sig) - kSlack);
  // The legal-state level gives d (s + 1/2) kappa; the global bound G caps
  // every pair regardless of distance (Theorem 5.5).
  return std::min(distance * (s + 0.5) * kappa, g);
}

double SyncParams::space_bound_bits(int diameter, int max_degree,
                                    double frequency, double eps) const {
  const auto bits = [](double x) { return std::max(1.0, std::log2(x)); };
  const double sig = std::max(2.0, sigma(eps));
  const double levels = std::max(
      2.0, std::log(static_cast<double>(std::max(2, diameter))) / std::log(sig));
  const double per_neighbor =
      bits(1.0 / mu) + bits(eps * mu * diameter) + bits(levels);
  return bits(frequency * delay_hat) + bits(mu * diameter) +
         max_degree * per_neighbor;
}

SyncParams SyncParams::recommended(double delay_hat, double eps_hat,
                                   double mu_floor) {
  SyncParams p;
  p.delay_hat = delay_hat;
  p.eps_hat = eps_hat;
  p.mu = std::max(14.0 * eps_hat / (1.0 - eps_hat), mu_floor);
  p.h0 = delay_hat / p.mu;
  p.kappa = p.min_kappa();
  p.check();
  return p;
}

SyncParams SyncParams::with(double delay_hat, double eps_hat, double mu,
                            double h0) {
  SyncParams p;
  p.delay_hat = delay_hat;
  p.eps_hat = eps_hat;
  p.mu = mu;
  p.h0 = h0;
  p.kappa = p.min_kappa();
  p.check();
  return p;
}

SyncParams SyncParams::wsn() {
  // 2 ms delay uncertainty, 1e-5 drift; mu floored at 1e-3 so the beacon
  // period H0 = T/mu stays at 2 s rather than hours.
  return recommended(/*delay_hat=*/2.0, /*eps_hat=*/1e-5, /*mu_floor=*/1e-3);
}

SyncParams SyncParams::datacenter() {
  // 0.1 ms jitter, 1e-6 drift; mu floored for a 10 ms beacon period.
  return recommended(/*delay_hat=*/0.1, /*eps_hat=*/1e-6, /*mu_floor=*/0.01);
}

SyncParams SyncParams::chip() {
  // 10 ns link latency uncertainty, ring-oscillator drift 0.2: mu must be
  // at least 14 * 0.2 / 0.8 = 3.5 — clocks sprint to correct skews.
  return recommended(/*delay_hat=*/1e-5, /*eps_hat=*/0.2);
}

}  // namespace tbcs::core
