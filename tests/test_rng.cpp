#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace spatl::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.uniform_index(5)];
  for (int count : seen) EXPECT_GT(count, 100);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.08);
}

TEST(Rng, GammaIsPositiveAndHasRightMean) {
  Rng rng(17);
  for (double shape : {0.3, 0.5, 1.0, 2.5}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const double g = rng.gamma(shape);
      ASSERT_GT(g, 0.0);
      sum += g;
    }
    EXPECT_NEAR(sum / n, shape, 0.1 * std::max(1.0, shape));
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(19);
  for (double alpha : {0.1, 0.5, 5.0}) {
    const auto p = rng.dirichlet(alpha, 10);
    ASSERT_EQ(p.size(), 10u);
    const double total = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double v : p) EXPECT_GE(v, 0.0);
  }
}

TEST(Rng, DirichletRejectsNonPositiveConcentration) {
  Rng rng(19);
  for (double alpha : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW(rng.dirichlet(alpha, 10), std::invalid_argument) << alpha;
  }
}

TEST(Rng, DirichletConcentrationControlsSkew) {
  Rng rng(23);
  // Low alpha -> concentrated draws (high max); high alpha -> near-uniform.
  double max_low = 0.0, max_high = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto lo = rng.dirichlet(0.1, 10);
    const auto hi = rng.dirichlet(50.0, 10);
    max_low += *std::max_element(lo.begin(), lo.end());
    max_high += *std::max_element(hi.begin(), hi.end());
  }
  EXPECT_GT(max_low / trials, 0.5);
  EXPECT_LT(max_high / trials, 0.25);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(50, 20);
  ASSERT_EQ(s.size(), 20u);
  auto sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (auto i : s) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleWithoutReplacementClampsOversizedRequest) {
  Rng rng(37);
  const auto s = rng.sample_without_replacement(5, 12);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(41);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 4000; ++i) ++hits[rng.categorical(w)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(double(hits[2]) / double(hits[0]), 3.0, 0.5);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The child should not replay the parent's sequence.
  Rng b(55);
  b.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace spatl::common
