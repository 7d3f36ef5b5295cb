#include "checker.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench::check {

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) throw std::invalid_argument("Pearson: length");
  const size_t n = x.size();
  if (n < 2) return 0.0;
  // Two-pass: centre first, then accumulate (robust for return-scale data).
  long double mx = 0.0L, my = 0.0L;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<long double>(n);
  my /= static_cast<long double>(n);
  long double sxy = 0.0L, sxx = 0.0L, syy = 0.0L;
  for (size_t i = 0; i < n; ++i) {
    const long double dx = x[i] - mx;
    const long double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx < 1e-12L || syy < 1e-12L) return 0.0;
  const double r = static_cast<double>(sxy / std::sqrt(sxx * syy));
  return std::clamp(r, -1.0, 1.0);
}

double InformationCoefficient(const Panel& predictions, const Panel& labels) {
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("InformationCoefficient: date count");
  }
  if (predictions.empty()) return 0.0;
  double sum = 0.0;
  for (size_t d = 0; d < predictions.size(); ++d) {
    sum += Pearson(predictions[d], labels[d]);
  }
  return sum / static_cast<double>(predictions.size());
}

bool OverflowsDouble(const std::vector<double>& x) {
  if (x.empty()) return false;
  long double mean = 0.0L;
  for (double v : x) mean += v;
  mean /= static_cast<long double>(x.size());
  long double sxx = 0.0L;
  for (double v : x) sxx += (v - mean) * (v - mean);
  return sxx > static_cast<long double>(DBL_MAX);
}

int TopN(int num_stocks) { return std::max(1, num_stocks / 10); }

std::vector<double> LongShortReturns(const Panel& predictions,
                                     const Panel& labels, int top_n) {
  if (predictions.size() != labels.size()) {
    throw std::invalid_argument("LongShortReturns: date count");
  }
  std::vector<double> out;
  out.reserve(predictions.size());
  for (size_t d = 0; d < predictions.size(); ++d) {
    const std::vector<double>& p = predictions[d];
    const std::vector<double>& l = labels[d];
    const int n = static_cast<int>(p.size());
    if (static_cast<int>(l.size()) != n || 2 * top_n > n) {
      throw std::invalid_argument("LongShortReturns: universe");
    }
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&p](int a, int b) {
      return p[static_cast<size_t>(a)] < p[static_cast<size_t>(b)];
    });
    double shorts = 0.0, longs = 0.0;
    for (int i = 0; i < top_n; ++i) {
      shorts += l[static_cast<size_t>(order[static_cast<size_t>(i)])];
      longs += l[static_cast<size_t>(order[static_cast<size_t>(n - 1 - i)])];
    }
    out.push_back(0.5 * (longs / top_n - shorts / top_n));
  }
  return out;
}

bool Close(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace perfbench::check
