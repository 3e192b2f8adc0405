#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  // ceil(q * n) samples sit at or below the quantile; the small epsilon
  // keeps 0.99 * 1000 from rounding up to 991.
  const double at_or_below =
      std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t below = static_cast<size_t>(std::max(0.0, at_or_below));
  return below >= n ? 0 : n - below;
}

size_t SamplesForTail(double q) {
  size_t n = kMinSamplesBeyond;
  while (SamplesBeyond(n, q) < kMinSamplesBeyond) ++n;
  return n;
}

double TailQuantile(size_t n) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= kMinSamplesBeyond) return q;
  }
  return 0.5;
}

}  // namespace perfbench
