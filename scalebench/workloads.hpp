#pragma once

// The benchmark workloads and the protocol each one runs. Everything
// reaches the program through its public API: make_water_box /
// apoa1_like*, Workload, ParallelSim, run_scaling, WorkCache and the
// SummaryProfile sink.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "rts/exec_backend.hpp"
#include "topo/molecule.hpp"

namespace scalebench {

/// PEs, worker threads and worker processes of every MD workload.
inline constexpr int kPes = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Existing directory for run-scoped files (the process backend's
  /// checkpoint); the caller removes it.
  std::string scratch_dir = ".";
};

struct RunResult {
  bool correct = true;
  OpCount ops;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);

/// The workload's input system for `seed`: same seed, same bits. Records a
/// "gen.system" span around the whole of it and, on the membrane, a nested
/// "gen.relax" span around the input's relaxation.
scalemd::Molecule make_input(const std::string& workload, std::uint64_t seed, SpanLog& spans);

/// Bitwise fingerprint of gather_positions() after an MD workload's set-up
/// (LB warm-up included) and `cycles` timed cycles, run on `backend`
/// (threaded or simulated) instead of the workload's own. Equal values on
/// two backends mean bitwise-equal trajectories.
std::uint64_t protocol_fingerprint(const std::string& workload, std::uint64_t seed,
                                   scalemd::BackendKind backend, int cycles);

/// Runs one workload. With cfg.trace the run also records the per-layer
/// breakdown (SummaryProfile on alternate cycles, spans, counters).
/// Progress and per-cycle tables go to stdout as text.
RunResult run_workload(const RunConfig& cfg, SpanLog& spans);

/// Names and units of every metric a run emits, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace scalebench
