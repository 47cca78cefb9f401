#pragma once

// Spans the benchmark records around each public call it makes into the
// program (Workload build, ParallelSim construction, run_cycle,
// load_balance, export/import_state, WorkCache, run_scaling). Kept in
// memory; summarized when the run ends. Spans inside the program itself
// are not recorded here.

#include <chrono>
#include <string>
#include <vector>

namespace scalebench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  double seconds() const { return end - start; }
};

class SpanLog {
 public:
  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations of every closed span called `name`, in order.
  std::vector<double> durations(const std::string& name) const;
  /// Self time of every span called `name`: duration minus the time its
  /// direct children cover.
  std::vector<double> self_times(const std::string& name) const;

  /// One line per distinct span name: count, total, median, self total.
  std::string summary() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction or stop().
class Span {
 public:
  Span(SpanLog& log, std::string name) : log_(&log), index_(log.open(std::move(name))) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span; returns its duration in seconds.
  double stop();

 private:
  SpanLog* log_;
  int index_;
  bool open_ = true;
};

}  // namespace scalebench
