#include "obs/history_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/log2_buckets.hpp"

namespace tbcs::obs {
namespace {

// Deterministic pseudo-stream without pulling in sim/rng: a simple LCG.
double lcg01(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>(s >> 11) * 0x1.0p-53;
}

TEST(HistoryConfig, ParseAndName) {
  EXPECT_EQ(parse_history_backend("exact"), HistoryConfig::Backend::kExact);
  EXPECT_EQ(parse_history_backend("stair"), HistoryConfig::Backend::kStair);
  EXPECT_THROW(parse_history_backend("bogus"), std::invalid_argument);
  EXPECT_STREQ(history_backend_name(HistoryConfig::Backend::kExact), "exact");
  EXPECT_STREQ(history_backend_name(HistoryConfig::Backend::kStair), "stair");
}

TEST(HistoryConfig, FactorySelectsBackend) {
  HistoryConfig cfg;
  EXPECT_STREQ(make_history_store(cfg)->name(), "exact");
  cfg.backend = HistoryConfig::Backend::kStair;
  EXPECT_STREQ(make_history_store(cfg)->name(), "stair");
}

TEST(ExactHistory, EmptyStore) {
  ExactHistoryStore h;
  EXPECT_EQ(h.appends(), 0u);
  EXPECT_TRUE(std::isnan(h.last_time()));
  EXPECT_TRUE(std::isnan(h.last_value()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_EQ(h.memory_bytes(), 0u);
}

TEST(ExactHistory, KeepsEverySample) {
  ExactHistoryStore h;
  for (int i = 0; i < 100; ++i) {
    h.append(static_cast<double>(i), static_cast<double>(i % 7));
  }
  EXPECT_EQ(h.appends(), 100u);
  EXPECT_DOUBLE_EQ(h.last_time(), 99.0);
  EXPECT_DOUBLE_EQ(h.last_value(), 99 % 7);
  const auto ws = h.windows();
  ASSERT_EQ(ws.size(), 100u);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_DOUBLE_EQ(ws[i].t_lo, ws[i].t_hi);
    EXPECT_EQ(ws[i].count, 1u);
    EXPECT_DOUBLE_EQ(ws[i].min, ws[i].max);
  }
  EXPECT_EQ(h.coarsest_window_span(), 0.0);
}

TEST(ExactHistory, QuantileIsOrderStatistic) {
  ExactHistoryStore h;
  for (int i = 100; i >= 1; --i) h.append(static_cast<double>(101 - i), i);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
}

TEST(StairHistory, NewestSampleStaysExact) {
  StairHistoryStore h(4096);
  std::uint64_t s = 42;
  for (int i = 0; i < 50000; ++i) {
    h.append(static_cast<double>(i), lcg01(s));
  }
  const double want = 0.123456789;
  h.append(50000.0, want);
  EXPECT_DOUBLE_EQ(h.last_time(), 50000.0);
  EXPECT_DOUBLE_EQ(h.last_value(), want);
  EXPECT_EQ(h.appends(), 50001u);
}

TEST(StairHistory, MemoryStaysUnderBudget) {
  for (const std::size_t budget : {2048u, 16u * 1024u, 64u * 1024u}) {
    StairHistoryStore h(budget);
    std::uint64_t s = 7;
    for (int i = 0; i < 200000; ++i) {
      h.append(static_cast<double>(i) * 0.25, lcg01(s));
      // The budget is a hard bound at every point in the stream, not
      // just at the end.
      ASSERT_LE(h.memory_bytes(), std::max<std::size_t>(budget, 4096u))
          << "budget=" << budget << " i=" << i;
    }
    EXPECT_GT(h.appends(), 0u);
  }
}

TEST(StairHistory, WindowsPartitionTheStream) {
  StairHistoryStore h(2048);
  std::uint64_t s = 9;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    h.append(static_cast<double>(i), lcg01(s));
  }
  const auto ws = h.windows();
  ASSERT_FALSE(ws.empty());
  // Oldest-first ordering, non-overlapping, counts sum to appends.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    total += ws[i].count;
    EXPECT_LE(ws[i].t_lo, ws[i].t_hi);
    if (i > 0) {
      EXPECT_LT(ws[i - 1].t_hi, ws[i].t_lo);
    }
    EXPECT_LE(ws[i].min, ws[i].max);
    EXPECT_GE(ws[i].mean(), ws[i].min);
    EXPECT_LE(ws[i].mean(), ws[i].max);
  }
  EXPECT_EQ(total, h.appends());
  // Recent history is finer than old history: the last window is a
  // singleton, the first covers many samples.
  EXPECT_EQ(ws.back().count, 1u);
  EXPECT_GT(ws.front().count, 1u);
  EXPECT_GT(h.coarsest_window_span(), 0.0);
}

TEST(StairHistory, AggregatesMatchExact) {
  ExactHistoryStore exact;
  StairHistoryStore stair(4096);
  std::uint64_t s = 11;
  for (int i = 0; i < 40000; ++i) {
    const double t = static_cast<double>(i) * 0.5;
    const double v = lcg01(s) * 10.0;
    exact.append(t, v);
    stair.append(t, v);
  }
  EXPECT_EQ(stair.appends(), exact.appends());
  EXPECT_DOUBLE_EQ(stair.last_value(), exact.last_value());
}

TEST(StairHistory, QuantileWithinFactorTwo) {
  ExactHistoryStore exact;
  StairHistoryStore stair(4096);
  std::uint64_t s = 17;
  for (int i = 0; i < 30000; ++i) {
    const double v = 0.01 + lcg01(s) * 100.0;
    exact.append(static_cast<double>(i), v);
    stair.append(static_cast<double>(i), v);
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double truth = exact.quantile(q);
    const double approx = stair.quantile(q);
    // approx is the lower edge of the log2 bucket containing the true
    // order statistic.
    EXPECT_LE(approx, truth * (1.0 + 1e-12)) << "q=" << q;
    EXPECT_GE(approx * 2.0, truth * (1.0 - 1e-12)) << "q=" << q;
  }
}

TEST(StairHistory, DeterministicAcrossInstances) {
  StairHistoryStore a(8192), b(8192);
  std::uint64_t s1 = 23, s2 = 23;
  for (int i = 0; i < 25000; ++i) {
    a.append(static_cast<double>(i), lcg01(s1));
    b.append(static_cast<double>(i), lcg01(s2));
  }
  const auto wa = a.windows();
  const auto wb = b.windows();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_DOUBLE_EQ(wa[i].t_lo, wb[i].t_lo);
    EXPECT_DOUBLE_EQ(wa[i].t_hi, wb[i].t_hi);
    EXPECT_DOUBLE_EQ(wa[i].max, wb[i].max);
    EXPECT_EQ(wa[i].count, wb[i].count);
  }
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
}

TEST(StairHistory, TinyBudgetStillWorks) {
  StairHistoryStore h(64);  // far below one window's worth of real budget
  std::uint64_t s = 29;
  for (int i = 0; i < 10000; ++i) {
    h.append(static_cast<double>(i), lcg01(s));
  }
  EXPECT_EQ(h.appends(), 10000u);
  EXPECT_DOUBLE_EQ(h.last_time(), 9999.0);
  // The floor guarantees a small functioning sketch regardless of budget.
  std::uint64_t total = 0;
  for (const auto& w : h.windows()) total += w.count;
  EXPECT_EQ(total, 10000u);
}

TEST(Log2Buckets, IndexIsMonotoneAndBounded) {
  int prev = log2_bucket_index(1e-9);
  for (double v = 1e-9; v < 1e12; v *= 3.7) {
    const int b = log2_bucket_index(v);
    EXPECT_GE(b, prev);
    EXPECT_GE(b, 1);
    EXPECT_LT(b, kLog2Buckets);
    prev = b;
  }
  EXPECT_EQ(log2_bucket_index(0.0), 0);
  EXPECT_EQ(log2_bucket_index(-5.0), 0);
  EXPECT_EQ(log2_bucket_index(std::nan("")), 0);

  // A value sits in the bucket whose lower bound is just below it.
  for (const double v : {0.001, 0.5, 1.0, 3.0, 1000.0}) {
    const int b = log2_bucket_index(v);
    EXPECT_LT(log2_bucket_lower_bound(b), v + 1e-15);
    if (b + 1 < kLog2Buckets) {
      EXPECT_LE(v, log2_bucket_lower_bound(b + 1) + 1e-15);
    }
  }
}

TEST(Log2Buckets, RoundTripFactorTwo) {
  EXPECT_EQ(log2_bucket_index(0.0), 0);
  EXPECT_EQ(log2_bucket_index(-1.0), 0);
  for (double v = 1e-6; v < 1e6; v *= 3.7) {
    const int b = log2_bucket_index(v);
    ASSERT_GE(b, 1);
    ASSERT_LT(b, kLog2Buckets);
    const double lo = log2_bucket_lower_bound(b);
    if (v >= std::ldexp(1.0, -17) && v <= std::ldexp(1.0, 29)) {
      EXPECT_LT(lo, v * (1.0 + 1e-12));
      EXPECT_GE(lo * 2.0, v * (1.0 - 1e-12));
    }
  }
}

}  // namespace
}  // namespace tbcs::obs
