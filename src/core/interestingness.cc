#include "src/core/interestingness.h"

#include <cmath>
#include <cstdlib>

namespace spade {

const char* InterestingnessName(InterestingnessKind kind) {
  switch (kind) {
    case InterestingnessKind::kVariance:
      return "variance";
    case InterestingnessKind::kSkewness:
      return "skewness";
    case InterestingnessKind::kKurtosis:
      return "kurtosis";
  }
  return "?";
}

bool ParseInterestingness(const std::string& text, InterestingnessKind* kind) {
  for (InterestingnessKind k : {InterestingnessKind::kVariance,
                                InterestingnessKind::kSkewness,
                                InterestingnessKind::kKurtosis}) {
    if (text == InterestingnessName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

namespace {

struct Moments {
  size_t n = 0;
  double mean = 0;
  double m2 = 0;  // sum of (x - mean)^2
  double m3 = 0;
  double m4 = 0;
};

Moments ComputeMoments(const std::vector<double>& values) {
  Moments m;
  m.n = values.size();
  if (m.n == 0) return m;
  double sum = 0;
  for (double v : values) sum += v;
  m.mean = sum / static_cast<double>(m.n);
  for (double v : values) {
    double d = v - m.mean;
    double d2 = d * d;
    m.m2 += d2;
    m.m3 += d2 * d;
    m.m4 += d2 * d2;
  }
  return m;
}

double SkewFromMoments(size_t n, double m2, double m3) {
  if (n < 2 || m2 <= 0) return 0;
  double nn = static_cast<double>(n);
  double sigma2 = m2 / nn;  // biased variance
  return (m3 / nn) / std::pow(sigma2, 1.5);
}

double KurtFromMoments(size_t n, double m2, double m4) {
  if (n < 2 || m2 <= 0) return 0;
  double nn = static_cast<double>(n);
  double sigma2 = m2 / nn;
  return (m4 / nn) / (sigma2 * sigma2) - 3.0;
}

}  // namespace

double Variance(const std::vector<double>& values) {
  Moments m = ComputeMoments(values);
  if (m.n < 2) return 0;
  return m.m2 / static_cast<double>(m.n - 1);
}

double Skewness(const std::vector<double>& values) {
  Moments m = ComputeMoments(values);
  return SkewFromMoments(m.n, m.m2, m.m3);
}

double Kurtosis(const std::vector<double>& values) {
  Moments m = ComputeMoments(values);
  return KurtFromMoments(m.n, m.m2, m.m4);
}

double Interestingness(InterestingnessKind kind, const std::vector<double>& values) {
  switch (kind) {
    case InterestingnessKind::kVariance:
      return Variance(values);
    case InterestingnessKind::kSkewness:
      return std::fabs(Skewness(values));
    case InterestingnessKind::kKurtosis:
      return std::fabs(Kurtosis(values));
  }
  return 0;
}

std::vector<double> InterestingnessGradient(InterestingnessKind kind,
                                            const std::vector<double>& values) {
  size_t g = values.size();
  std::vector<double> grad(g, 0.0);
  if (g < 2) return grad;
  Moments m = ComputeMoments(values);
  double gg = static_cast<double>(g);

  switch (kind) {
    case InterestingnessKind::kVariance: {
      // dH/dy_s = 2/(G-1) (y_s - mean)   (Appendix A).
      for (size_t s = 0; s < g; ++s) {
        grad[s] = 2.0 / (gg - 1.0) * (values[s] - m.mean);
      }
      return grad;
    }
    case InterestingnessKind::kSkewness: {
      // h = m3 / sigma^3 with m3 = M3/G, sigma^2 = M2/G. Using the chain
      // rule with dM3/dy_s = 3[(y_s - mean)^2 - M2/G] and
      // dM2/dy_s = 2(y_s - mean):
      if (m.m2 <= 0) return grad;
      double sigma2 = m.m2 / gg;
      double sigma3 = std::pow(sigma2, 1.5);
      double m3 = m.m3 / gg;
      for (size_t s = 0; s < g; ++s) {
        double d = values[s] - m.mean;
        double dm3 = 3.0 / gg * (d * d - m.m2 / gg);
        double dsigma2 = 2.0 * d / gg;
        grad[s] = dm3 / sigma3 - 1.5 * m3 / std::pow(sigma2, 2.5) * dsigma2;
      }
      return grad;
    }
    case InterestingnessKind::kKurtosis: {
      // h = m4 / sigma^4 - 3, same chain-rule development.
      if (m.m2 <= 0) return grad;
      double sigma2 = m.m2 / gg;
      double m4 = m.m4 / gg;
      for (size_t s = 0; s < g; ++s) {
        double d = values[s] - m.mean;
        double dm4 = 4.0 / gg * (d * d * d - m.m3 / gg);
        double dsigma2 = 2.0 * d / gg;
        grad[s] = dm4 / (sigma2 * sigma2) -
                  2.0 * m4 / (sigma2 * sigma2 * sigma2) * dsigma2;
      }
      return grad;
    }
  }
  return grad;
}

void OnlineMoments::Add(double x) {
  // Pébay's single-pass update of central moments up to order 4.
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  double n1 = static_cast<double>(n_);
  ++n_;
  double n = static_cast<double>(n_);
  double delta = x - mean_;
  double delta_n = delta / n;
  double delta_n2 = delta_n * delta_n;
  double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3 * n + 3) + 6 * delta_n2 * m2_ -
         4 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2) - 3 * delta_n * m2_;
  m2_ += term1;
}

double OnlineMoments::variance() const {
  if (n_ < 2) return 0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineMoments::skewness() const { return SkewFromMoments(n_, m2_, m3_); }

double OnlineMoments::kurtosis() const { return KurtFromMoments(n_, m2_, m4_); }

double OnlineMoments::Score(InterestingnessKind kind) const {
  switch (kind) {
    case InterestingnessKind::kVariance:
      return variance();
    case InterestingnessKind::kSkewness:
      return std::fabs(skewness());
    case InterestingnessKind::kKurtosis:
      return std::fabs(kurtosis());
  }
  return 0;
}

double NormalQuantile(double p) {
  // Peter Acklam's inverse normal CDF approximation.
  if (p <= 0) return -1e9;
  if (p >= 1) return 1e9;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

}  // namespace spade
