// Independent reference computations for the benchmark's correctness
// checks. Nothing here calls into the alphaevolve library: the checks
// recompute the paper's quantities from raw predictions and labels, so a
// bug in the library's own statistics cannot vouch for itself.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstddef>
#include <vector>

namespace perfbench::check {

/// A [date][stock] matrix (predictions or realized next-day returns).
using Panel = std::vector<std::vector<double>>;

/// Sample Pearson correlation of two equal-length series, accumulated in
/// long double, whose range covers predictions far beyond the double range
/// (a double Pearson overflows from about 1e154). A series with
/// (near-)zero variance has no defined correlation and yields 0, the
/// convention the paper's IC uses for degenerate prediction vectors.
double Pearson(const std::vector<double>& x, const std::vector<double>& y);

/// Information coefficient (paper Eq. 1): the mean over dates of the
/// cross-sectional Pearson correlation of predictions and labels.
double InformationCoefficient(const Panel& predictions, const Panel& labels);

/// True when the cross-sectional sum of squared deviations of `x` exceeds
/// the double range, so a double-precision Pearson on it overflows.
bool OverflowsDouble(const std::vector<double>& x);

/// Stocks held on each side of the long-short book: 10% of the universe,
/// at least one.
int TopN(int num_stocks);

/// Daily returns of the dollar-neutral long-short portfolio: long the
/// `top_n` highest predictions, short the `top_n` lowest (ties keep stock
/// order), each side equal-weighted, R = (mean long - mean short) / 2.
std::vector<double> LongShortReturns(const Panel& predictions,
                                     const Panel& labels, int top_n);

/// Correlation of two alphas' portfolio-return series: the quantity the
/// 15% weak-correlation cutoff bounds (paper §5.4.1).
inline double PortfolioCorrelation(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  return Pearson(a, b);
}

/// |a - b| <= tol * max(1, |a|, |b|).
bool Close(double a, double b, double tol = 1e-9);

}  // namespace perfbench::check

#endif  // PERFBENCH_CHECKER_H_
