#ifndef SPADE_CORE_INTERESTINGNESS_H_
#define SPADE_CORE_INTERESTINGNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spade {

/// Interestingness functions natively supported by Spade (Section 3, step 5):
/// variance detects deviation from uniform aggregate values; skewness and
/// kurtosis detect deviation from a normal distribution.
enum class InterestingnessKind : uint8_t {
  kVariance = 0,
  kSkewness,
  kKurtosis,
};

const char* InterestingnessName(InterestingnessKind kind);
/// Exact inverse of InterestingnessName; false on any other input.
bool ParseInterestingness(const std::string& text, InterestingnessKind* kind);

/// Unbiased sample variance (Eq. 1 of the paper). 0 for fewer than 2 values.
double Variance(const std::vector<double>& values);

/// Sample skewness m3 / sigma^3 with sigma^2 the biased variance. The paper's
/// Appendix A prints the normalizer as [H]^{2/3}; that exponent is a typo
/// (skewness must be scale-invariant), so we use the standard -3/2 form. The
/// early-stop CI machinery only needs continuous partial derivatives, which
/// hold either way. Interestingness uses |skewness| so that left and right
/// tails rank equally.
double Skewness(const std::vector<double>& values);

/// Sample excess kurtosis m4 / sigma^4 - 3 (Appendix A). Interestingness uses
/// its absolute value.
double Kurtosis(const std::vector<double>& values);

/// Apply the chosen function; skewness/kurtosis are folded to |.| so that the
/// score is a positive magnitude of deviation, per Section 2's "positive real
/// number" contract.
double Interestingness(InterestingnessKind kind, const std::vector<double>& values);

/// Gradient d h / d y_s of the interestingness function at `values`
/// (Appendix A formulas); used by the early-stop Delta-method CI.
std::vector<double> InterestingnessGradient(InterestingnessKind kind,
                                            const std::vector<double>& values);

/// \brief Streaming central moments (Welford / Pébay update). The ARM feeds
/// each group's aggregated value once and computes the interestingness score
/// in O(1) memory per aggregate.
class OnlineMoments {
 public:
  void Add(double x);

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased variance (matches Variance()).
  double variance() const;
  /// Matches Skewness().
  double skewness() const;
  /// Matches Kurtosis().
  double kurtosis() const;
  double min() const { return min_; }
  double max() const { return max_; }

  double Score(InterestingnessKind kind) const;

 private:
  size_t n_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double m3_ = 0;
  double m4_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Quantile of the standard normal distribution (Acklam's rational
/// approximation, |error| < 1.15e-9). Used for z_{1-alpha} in Section 5.
double NormalQuantile(double p);

}  // namespace spade

#endif  // SPADE_CORE_INTERESTINGNESS_H_
