#include "src/core/interestingness.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/rng.h"

namespace spade {
namespace {

TEST(VarianceTest, ClosedForm) {
  EXPECT_DOUBLE_EQ(Variance({1, 2, 3, 4}), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(Variance({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({7}), 0.0);
}

TEST(SkewnessTest, SymmetricIsZero) {
  EXPECT_NEAR(Skewness({1, 2, 3, 4, 5}), 0.0, 1e-12);
  EXPECT_NEAR(Skewness({-3, 0, 3}), 0.0, 1e-12);
}

TEST(SkewnessTest, RightTailPositive) {
  EXPECT_GT(Skewness({1, 1, 1, 1, 100}), 1.0);
  EXPECT_LT(Skewness({-100, 1, 1, 1, 1}), -1.0);
}

TEST(SkewnessTest, ScaleAndShiftInvariant) {
  std::vector<double> base = {1, 4, 9, 16, 25};
  std::vector<double> scaled;
  for (double v : base) scaled.push_back(3.0 * v + 17.0);
  EXPECT_NEAR(Skewness(base), Skewness(scaled), 1e-12);
}

TEST(KurtosisTest, UniformIsPlatykurtic) {
  // Excess kurtosis of a discrete uniform sample is negative.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_LT(Kurtosis(v), 0.0);
}

TEST(KurtosisTest, HeavyTailPositive) {
  std::vector<double> v(100, 0.0);
  v[0] = 50;
  v[99] = -50;
  EXPECT_GT(Kurtosis(v), 3.0);
}

TEST(KurtosisTest, NormalSampleNearZero) {
  Rng rng(3);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.NextGaussian());
  EXPECT_NEAR(Kurtosis(v), 0.0, 0.15);
}

TEST(InterestingnessTest, DispatchAndAbsoluteValue) {
  std::vector<double> left_skewed = {-100, 1, 1, 1, 1};
  EXPECT_GT(Interestingness(InterestingnessKind::kSkewness, left_skewed), 0.0);
  EXPECT_DOUBLE_EQ(Interestingness(InterestingnessKind::kVariance, {1, 3}),
                   Variance({1, 3}));
}

TEST(InterestingnessTest, Names) {
  EXPECT_STREQ(InterestingnessName(InterestingnessKind::kVariance), "variance");
  EXPECT_STREQ(InterestingnessName(InterestingnessKind::kSkewness), "skewness");
  EXPECT_STREQ(InterestingnessName(InterestingnessKind::kKurtosis), "kurtosis");
  // The parser accepts exactly the names above and leaves `kind` alone on a
  // rejection.
  for (InterestingnessKind want :
       {InterestingnessKind::kVariance, InterestingnessKind::kSkewness,
        InterestingnessKind::kKurtosis}) {
    InterestingnessKind got = InterestingnessKind::kVariance;
    ASSERT_TRUE(ParseInterestingness(InterestingnessName(want), &got));
    EXPECT_EQ(got, want);
  }
  InterestingnessKind kind = InterestingnessKind::kSkewness;
  EXPECT_FALSE(ParseInterestingness("Variance", &kind));
  EXPECT_EQ(kind, InterestingnessKind::kSkewness);
}

// Gradients checked against central finite differences.
class GradientTest
    : public ::testing::TestWithParam<InterestingnessKind> {};

TEST_P(GradientTest, MatchesFiniteDifferences) {
  InterestingnessKind kind = GetParam();
  std::vector<double> y = {2.0, 5.0, 3.5, 9.0, 4.0, 7.5};
  std::vector<double> grad = InterestingnessGradient(kind, y);
  auto h_at = [&](const std::vector<double>& v) {
    switch (kind) {
      case InterestingnessKind::kVariance:
        return Variance(v);
      case InterestingnessKind::kSkewness:
        return Skewness(v);
      case InterestingnessKind::kKurtosis:
        return Kurtosis(v);
    }
    return 0.0;
  };
  const double eps = 1e-6;
  for (size_t s = 0; s < y.size(); ++s) {
    std::vector<double> up = y, down = y;
    up[s] += eps;
    down[s] -= eps;
    double numeric = (h_at(up) - h_at(down)) / (2 * eps);
    EXPECT_NEAR(grad[s], numeric, 1e-4) << "component " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GradientTest,
                         ::testing::Values(InterestingnessKind::kVariance,
                                           InterestingnessKind::kSkewness,
                                           InterestingnessKind::kKurtosis));

TEST(GradientTest, DegenerateInputsReturnZeros) {
  EXPECT_EQ(InterestingnessGradient(InterestingnessKind::kVariance, {1.0}),
            (std::vector<double>{0.0}));
  EXPECT_EQ(
      InterestingnessGradient(InterestingnessKind::kSkewness, {2.0, 2.0}),
      (std::vector<double>{0.0, 0.0}));  // zero variance
}

TEST(OnlineMomentsTest, MatchesBatchFunctions) {
  Rng rng(11);
  std::vector<double> values;
  OnlineMoments om;
  for (int i = 0; i < 5000; ++i) {
    double v = rng.NextGaussian() * 3 + (rng.Bernoulli(0.1) ? 20 : 0);
    values.push_back(v);
    om.Add(v);
  }
  EXPECT_EQ(om.count(), values.size());
  EXPECT_NEAR(om.variance(), Variance(values), 1e-8 * Variance(values));
  EXPECT_NEAR(om.skewness(), Skewness(values), 1e-8);
  EXPECT_NEAR(om.kurtosis(), Kurtosis(values), 1e-8);
}

TEST(OnlineMomentsTest, TracksMinMax) {
  OnlineMoments om;
  for (double v : {3.0, -1.0, 7.0, 2.0}) om.Add(v);
  EXPECT_DOUBLE_EQ(om.min(), -1.0);
  EXPECT_DOUBLE_EQ(om.max(), 7.0);
  EXPECT_DOUBLE_EQ(om.mean(), 2.75);
}

TEST(OnlineMomentsTest, ScoreDispatch) {
  OnlineMoments om;
  for (double v : {1.0, 2.0, 3.0, 40.0}) om.Add(v);
  EXPECT_DOUBLE_EQ(om.Score(InterestingnessKind::kVariance), om.variance());
  EXPECT_DOUBLE_EQ(om.Score(InterestingnessKind::kSkewness),
                   std::fabs(om.skewness()));
  EXPECT_DOUBLE_EQ(om.Score(InterestingnessKind::kKurtosis),
                   std::fabs(om.kurtosis()));
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.841344746), 1.0, 1e-6);
}

TEST(NormalQuantileTest, Monotone) {
  double prev = NormalQuantile(0.001);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

}  // namespace
}  // namespace spade
