#pragma once

// The shared benchmark harness: every bench binary and curated suite runs
// its measurements through a BenchRunner so warmup/repetition policy, robust
// statistics (min/median/MAD — never mean, which a single scheduler stall
// corrupts) and the JSON record layout are defined in exactly one place.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perf/json.hpp"

namespace scalemd::perf {

/// One benchmark's result: raw samples plus derived robust statistics.
/// `deterministic` marks model-clock results (virtual seconds from the DES)
/// that are exactly reproducible; their MAD is zero by construction and any
/// nonzero delta between runs is a real change, not noise.
struct BenchRecord {
  std::string name;
  std::string metric = "seconds";
  std::string unit = "s";
  bool deterministic = false;
  int reps = 0;
  int warmup = 0;
  std::vector<double> samples;
  // Derived by finalize() from samples:
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;
  /// Free-form numeric/string problem parameters (atoms, pes, kernel, ...).
  std::vector<std::pair<std::string, double>> params;
  std::vector<std::pair<std::string, std::string>> labels;

  BenchRecord& param(std::string key, double value);
  BenchRecord& label(std::string key, std::string value);
  /// Recomputes min/median/mad from samples.
  void finalize();

  JsonValue to_json() const;
  static BenchRecord from_json(const JsonValue& v);
};

struct BenchOptions {
  int reps = 7;    ///< timed repetitions per benchmark
  int warmup = 2;  ///< untimed warmup iterations before the first sample
};

/// Collects BenchRecords. Timing uses a monotonic wall clock; one sample is
/// one `fn()` call (or the per-iteration average with `time_batch`).
class BenchRunner {
 public:
  explicit BenchRunner(BenchOptions opts = {}) : opts_(opts) {}

  const BenchOptions& options() const { return opts_; }

  /// Runs `fn` options().warmup times untimed, then options().reps times
  /// timed; each timed call becomes one seconds-valued sample.
  BenchRecord& time(const std::string& name, const std::string& metric,
                    const std::function<void()>& fn);

  /// Like time(), but each sample is the average of `iters_per_rep`
  /// back-to-back calls — for sub-millisecond bodies where a single call
  /// disappears into clock jitter.
  BenchRecord& time_batch(const std::string& name, const std::string& metric,
                          int iters_per_rep, const std::function<void()>& fn);

  /// Records one exactly-reproducible value (model output, virtual clock)
  /// in the given unit ("s", "ms", "ratio", "steps/s", ...).
  BenchRecord& record_value(const std::string& name, const std::string& metric,
                            const std::string& unit, double value);

  /// Records externally produced samples (already in seconds or the stated
  /// metric's unit).
  BenchRecord& record_samples(const std::string& name, const std::string& metric,
                              std::vector<double> samples, int warmup = 0);

  std::vector<BenchRecord>& records() { return records_; }
  const std::vector<BenchRecord>& records() const { return records_; }
  std::vector<BenchRecord> take_records() { return std::move(records_); }

 private:
  BenchOptions opts_;
  std::vector<BenchRecord> records_;
};

}  // namespace scalemd::perf
