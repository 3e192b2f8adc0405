#pragma once

#include <cstddef>

namespace perfbench {

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Samples that rank strictly above the q-quantile of `n` samples.
size_t SamplesBeyond(size_t n, double q);

/// The fewest samples that leave kMinSamplesBeyond beyond the q-quantile
/// (1000 for p99, 100 for p90); runs keep sampling until they have it.
size_t SamplesForTail(double q);

/// The percentile rule for reporting a tail: the highest of p50, p75,
/// p90, p95, p99 and p99.9 that still has at least kMinSamplesBeyond
/// samples beyond it. Returns the quantile (0.5 when even the median has
/// fewer).
double TailQuantile(size_t n);

}  // namespace perfbench
