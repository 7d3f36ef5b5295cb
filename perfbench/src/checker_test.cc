// Hand-computed cases for the independent checker. Run by perfbench/run.py
// after every build; a failure stops the benchmark before any measurement.
#include <cmath>
#include <cstdio>
#include <vector>

#include "checker.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "checker_test FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench::check;

  // Perfect, inverted and partial linear association.
  Expect(Close(Pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-15), "pearson +1");
  Expect(Close(Pearson({1, 2, 3}, {3, 2, 1}), -1.0, 1e-15), "pearson -1");
  // dx = dy' = (-1.5,-.5,.5,1.5) / (-1.5,.5,-.5,1.5): sxy=4, sxx=syy=5.
  Expect(Close(Pearson({1, 2, 3, 4}, {1, 3, 2, 4}), 0.8, 1e-15),
         "pearson 0.8");
  // dx = (-1,0,1), dy = (-2,4,-2)/3: sxy = 0.
  Expect(Close(Pearson({1, 2, 3}, {0, 2, 0}), 0.0, 1e-15), "pearson 0");
  Expect(Pearson({5, 5, 5}, {1, 2, 3}) == 0.0, "constant series -> 0");
  Expect(Pearson({1}, {2}) == 0.0, "single point -> 0");

  // IC = mean of per-date correlations: (1 + 0.8) / 2.
  Expect(Close(InformationCoefficient({{1, 2, 3, 4}, {1, 2, 3, 4}},
                                      {{2, 4, 6, 8}, {1, 3, 2, 4}}),
               0.9, 1e-15),
         "ic two dates");
  Expect(InformationCoefficient({}, {}) == 0.0, "ic no dates");

  // Deviations of 1e200 square past DBL_MAX (~1.8e308); 1e100 do not.
  Expect(OverflowsDouble({-1e200, 1e200}) && !OverflowsDouble({-1e100, 1e100}),
         "double overflow");
  // The long-double Pearson is scale-free where a double one overflows, so
  // an IC over such dates is the same as over the unscaled predictions:
  // date 0 correlates 1, date 1 correlates 0.8, IC = 0.9.
  Expect(Close(Pearson({1e200, 2e200, 3e200}, {2, 4, 6}), 1.0, 1e-15),
         "pearson at 1e200");
  Expect(Close(InformationCoefficient(
                   {{1e200, 2e200, 3e200, 4e200}, {1, 2, 3, 4}},
                   {{1, 2, 3, 4}, {1, 3, 2, 4}}),
               0.9, 1e-15),
         "ic at 1e200");

  Expect(TopN(80) == 8 && TopN(24) == 2 && TopN(5) == 1, "top_n");

  // Ten stocks, one per side: long stock 9, short stock 0.
  {
    const std::vector<double> labels = {0.01, 0.02, 0.03, 0.04, 0.05,
                                        0.06, 0.07, 0.08, 0.09, 0.30};
    const std::vector<double> preds = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    const std::vector<double> r = LongShortReturns({preds}, {labels}, 1);
    Expect(r.size() == 1 && Close(r[0], 0.5 * (0.30 - 0.01), 1e-15),
           "long-short top 1");
    // Two per side, reversed ranking: long {0,1}, short {9,8}.
    const std::vector<double> rev = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
    const std::vector<double> r2 = LongShortReturns({rev}, {labels}, 2);
    Expect(Close(r2[0], 0.5 * (0.015 - 0.195), 1e-15), "long-short top 2");
    // All tied: stable order keeps stock order, so short 0, long 9.
    const std::vector<double> tied(10, 1.0);
    const std::vector<double> r3 = LongShortReturns({tied}, {labels}, 1);
    Expect(Close(r3[0], 0.5 * (0.30 - 0.01), 1e-15), "ties keep order");
  }

  // Portfolio correlation is the Pearson of the two return series.
  Expect(Close(PortfolioCorrelation({0.01, -0.02, 0.03}, {0.02, -0.04, 0.06}),
               1.0, 1e-15),
         "portfolio correlation");

  Expect(Close(1.0, 1.0 + 1e-12) && !Close(1.0, 1.001), "close");

  if (failures == 0) std::printf("checker_test: all cases pass\n");
  return failures == 0 ? 0 : 1;
}
