#pragma once

// The benchmark's own statistics. Kept separate from src/util/stats so the
// definitions the BENCHMARK.json bounds rely on (nearest-rank percentile,
// the tail-count rule, Python-compatible quartiles) are pinned by
// scalebench_selftest and cannot drift with the library.

#include <cstdint>
#include <vector>

namespace scalebench {

/// Median of `v` (mean of the two middle values for even sizes). 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the sorted
/// samples, 0 < p <= 100. 0 when empty.
double percentile(std::vector<double> v, double p);

/// Samples strictly after the nearest-rank `p`-th percentile's rank:
/// n - ceil(p/100 * n). A percentile is reported only as trustworthy when
/// at least ten samples lie beyond it.
int samples_beyond(int n, double p);

/// Smallest sample count whose `p`-th percentile has `tail` samples beyond.
int samples_needed(double p, int tail);

/// First and third quartile as Python's statistics.quantiles(v, n=4) gives
/// them (the default "exclusive" method). Needs at least two samples.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// Operations attempted vs failed. A failed output check fails its
/// operation; nothing is ever skipped.
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// FNV-1a 64-bit hash over raw bytes: a bitwise fingerprint of a trajectory
/// state, comparable across runs and backends.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace scalebench
