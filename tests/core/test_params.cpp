#include "core/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace tbcs::core {
namespace {

TEST(SyncParams, RecommendedIsValid) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01);
  std::string why;
  EXPECT_TRUE(p.valid(&why)) << why;
  EXPECT_DOUBLE_EQ(p.mu, 14.0 * 0.01 / 0.99);
  EXPECT_DOUBLE_EQ(p.h0, 1.0 / p.mu);
  EXPECT_DOUBLE_EQ(p.kappa, p.min_kappa());
}

TEST(SyncParams, RecommendedHonorsMuFloor) {
  const SyncParams p = SyncParams::recommended(1.0, 0.001, 0.5);
  EXPECT_DOUBLE_EQ(p.mu, 0.5);
  EXPECT_TRUE(p.valid());
}

TEST(SyncParams, H0Bar) {
  SyncParams p = SyncParams::recommended(1.0, 0.01, 0.2);
  EXPECT_DOUBLE_EQ(p.h0_bar(), (2.0 * 0.01 + p.mu) * p.h0);
}

TEST(SyncParams, MinKappaFormula) {
  SyncParams p = SyncParams::recommended(2.0, 0.02, 0.4);
  const double expected =
      2.0 * ((1.0 + 0.02) * (1.0 + 0.4) * 2.0 + (2.0 * 0.02 + 0.4) * p.h0);
  EXPECT_DOUBLE_EQ(p.min_kappa(), expected);
}

TEST(SyncParams, InvalidEpsilonRejected) {
  SyncParams p = SyncParams::recommended(1.0, 0.01);
  p.eps_hat = 1.0;
  std::string why;
  EXPECT_FALSE(p.valid(&why));
  EXPECT_NE(why.find("eps_hat"), std::string::npos);
}

TEST(SyncParams, Inequality6Enforced) {
  SyncParams p = SyncParams::recommended(1.0, 0.05);
  p.mu = 0.1;  // < 14 * 0.05 / 0.95 = 0.7368...
  std::string why;
  EXPECT_FALSE(p.valid(&why));
  EXPECT_NE(why.find("Inequality (6)"), std::string::npos);
}

TEST(SyncParams, Inequality4Enforced) {
  SyncParams p = SyncParams::recommended(1.0, 0.01);
  p.kappa = p.min_kappa() * 0.9;
  std::string why;
  EXPECT_FALSE(p.valid(&why));
  EXPECT_NE(why.find("Inequality (4)"), std::string::npos);
}

TEST(SyncParams, CheckThrowsOnInvalid) {
  SyncParams p = SyncParams::recommended(1.0, 0.01);
  p.h0 = -1.0;
  EXPECT_THROW(p.check(), std::invalid_argument);
}

TEST(SyncParams, NonFiniteValuesRejected) {
  // NaN passes every "x <= 0 -> invalid" test, so each field is checked
  // for finiteness on its own.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (double SyncParams::*field :
       {&SyncParams::delay_hat, &SyncParams::eps_hat, &SyncParams::mu,
        &SyncParams::h0, &SyncParams::kappa}) {
    for (const double bad : {nan, inf, -inf}) {
      SyncParams p = SyncParams::recommended(1.0, 0.01);
      p.*field = bad;
      EXPECT_FALSE(p.valid()) << bad;
      EXPECT_THROW(p.check(), std::invalid_argument) << bad;
    }
  }
  // with() derives kappa from the other fields, so a non-finite input
  // must not slip through as a non-finite kappa.
  EXPECT_THROW(SyncParams::with(nan, 0.01, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(SyncParams::with(inf, 0.01, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(SyncParams::with(1.0, nan, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(SyncParams::with(1.0, 0.01, nan, 1.0), std::invalid_argument);
  EXPECT_THROW(SyncParams::with(1.0, 0.01, 0.5, inf), std::invalid_argument);
}

TEST(SyncParams, SigmaIsLargestValidInteger) {
  SyncParams p = SyncParams::recommended(1.0, 0.01, 0.2);
  // sigma = floor(mu (1 - eps) / (7 eps)) = floor(0.2 * 0.99 / 0.07) = 2.
  EXPECT_DOUBLE_EQ(p.sigma(), 2.0);
  // Inequality (6) must hold at sigma and fail at sigma + 1.
  const double s = p.sigma();
  EXPECT_GE(p.mu, 7.0 * s * p.eps_hat / (1.0 - p.eps_hat) - 1e-12);
  EXPECT_LT(p.mu, 7.0 * (s + 1.0) * p.eps_hat / (1.0 - p.eps_hat));
}

TEST(SyncParams, SigmaGrowsWithMu) {
  SyncParams p = SyncParams::recommended(1.0, 0.001, 1.0);
  // sigma = floor(1.0 * 0.999 / 0.007) = 142.
  EXPECT_DOUBLE_EQ(p.sigma(), 142.0);
}

TEST(SyncParams, GlobalSkewBoundFormula) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.2);
  const double g = p.global_skew_bound(10, 0.01, 1.0);
  EXPECT_DOUBLE_EQ(g, 1.01 * 10.0 * 1.0 + 2.0 * 0.01 / 1.01 * p.h0);
}

TEST(SyncParams, GlobalSkewBoundGrowsLinearlyInD) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.2);
  const double g1 = p.global_skew_bound(10, 0.01, 1.0);
  const double g2 = p.global_skew_bound(20, 0.01, 1.0);
  EXPECT_NEAR(g2 - g1, 1.01 * 10.0, 1e-9);
}

TEST(SyncParams, LocalSkewBoundGrowsLogarithmically) {
  const SyncParams p = SyncParams::recommended(1.0, 0.005, 1.0);
  const double sigma = p.sigma();
  ASSERT_GE(sigma, 2.0);
  // Multiplying D by sigma adds exactly one kappa level (once the log is
  // past its floor).
  const double l1 = p.local_skew_bound(64, 0.005, 1.0);
  const double l2 =
      p.local_skew_bound(static_cast<int>(64 * sigma), 0.005, 1.0);
  EXPECT_NEAR(l2 - l1, p.kappa, 1e-9);
}

TEST(SyncParams, LocalSkewBoundAtLeastHalfKappa) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.2);
  EXPECT_GE(p.local_skew_bound(1, 0.01, 1.0), 0.5 * p.kappa);
}

TEST(SyncParams, DistanceSkewBoundInterpolates) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.5);
  const int d_max = 100;
  const double g = p.global_skew_bound(d_max, 0.01, 1.0);
  // Beyond C_0 = 2G/kappa the level-0 constraint d kappa / 2 >= G is looser
  // than the global bound, so the ceiling saturates at G.
  const int c0 = static_cast<int>(std::ceil(2.0 * g / p.kappa));
  EXPECT_NEAR(p.distance_skew_bound(c0, d_max, 0.01, 1.0), g, p.kappa);
  for (int d = 1; d <= d_max; ++d) {
    const double b = p.distance_skew_bound(d, d_max, 0.01, 1.0);
    // Never above the global bound, never below half a kappa per the
    // always-tolerated skew.
    EXPECT_LE(b, g + 1e-9) << "d = " << d;
    EXPECT_GE(b, 0.5 * p.kappa - 1e-9) << "d = " << d;
    // Within one level the ceiling grows linearly with d: the per-hop
    // allowance (s + 1/2) kappa never exceeds the d = 1 allowance.
    EXPECT_LE(b / d, p.distance_skew_bound(1, d_max, 0.01, 1.0) + 1e-9)
        << "gradient property: far pairs get proportionally less per hop";
  }
  // At d = 1 it matches the local skew bound (up to the ceil convention).
  EXPECT_NEAR(p.distance_skew_bound(1, d_max, 0.01, 1.0),
              p.local_skew_bound(d_max, 0.01, 1.0), p.kappa + 1e-9);
}

TEST(SyncParams, SpaceBoundScalesLogarithmicallyInDiameter) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.5);
  const double s64 = p.space_bound_bits(64, 4, 100.0, 0.01);
  const double s4096 = p.space_bound_bits(4096, 4, 100.0, 0.01);
  EXPECT_GT(s64, 4.0);           // a handful of bits at least
  EXPECT_LT(s4096, 4.0 * s64);   // log growth: 64x diameter, < 4x bits
  // Linear in the degree.
  const double d4 = p.space_bound_bits(64, 4, 100.0, 0.01);
  const double d16 = p.space_bound_bits(64, 16, 100.0, 0.01);
  EXPECT_GT(d16, 2.0 * d4 * 0.8);
}

TEST(SyncParams, PresetsAreValidAndScaledSensibly) {
  const SyncParams wsn = SyncParams::wsn();
  const SyncParams dc = SyncParams::datacenter();
  const SyncParams chip = SyncParams::chip();
  EXPECT_TRUE(wsn.valid());
  EXPECT_TRUE(dc.valid());
  EXPECT_TRUE(chip.valid());
  // The paper's conclusion: for typical drifts (1e-5) and diameters
  // (20-30), the neighbor skew is O(T) — single-digit multiples of the
  // delay uncertainty.
  EXPECT_LE(wsn.local_skew_bound(30, 1e-5, 2.0), 20.0 * 2.0);
  // Chip-scale drift 0.2 forces a large mu (Inequality (6)).
  EXPECT_GE(chip.mu, 14.0 * 0.2 / 0.8 - 1e-12);
  // Datacenter beacons ~10 ms, WSN beacons ~2 s (units: ms).
  EXPECT_NEAR(dc.h0, 10.0, 1e-9);
  EXPECT_NEAR(wsn.h0, 2000.0, 1e-9);
}

TEST(SyncParams, AlphaBetaMatchCorollary53) {
  const SyncParams p = SyncParams::recommended(1.0, 0.01, 0.25);
  EXPECT_DOUBLE_EQ(p.alpha(0.01), 0.99);
  EXPECT_DOUBLE_EQ(p.beta(0.01), 1.01 * 1.25);
}

}  // namespace
}  // namespace tbcs::core
