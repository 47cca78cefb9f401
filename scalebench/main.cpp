// scalebench: runs one benchmark workload and prints its metrics.
//
//   scalebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable progress goes to stdout; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// scalebench/README.md.

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>

#include "perf/env.hpp"
#include "workloads.hpp"

namespace {

using namespace scalebench;

int usage(const char* msg) {
  std::fprintf(stderr, "scalebench: %s\n", msg);
  std::fprintf(stderr,
               "usage: scalebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// A run-scoped directory under .bench_build/tmp, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::filesystem::create_directories(".bench_build/tmp");
    char tmpl[] = ".bench_build/tmp/run-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) throw std::runtime_error("mkdtemp failed");
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void print_json(const RunResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.ops.attempted),
              static_cast<long long>(r.ops.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage(("unknown or incomplete argument: " + a).c_str());
    }
  }
  if (!have_workload || !is_workload(cfg.workload)) return usage("missing or unknown --workload");
  if (!have_seed) return usage("missing --seed");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  const int cpus = usable_cpus();
  if (cpus < kPes) {
    std::fprintf(stderr,
                 "scalebench: refusing to run: %d usable CPU(s), but the workloads run %d "
                 "threads or %d worker processes\n",
                 cpus, kPes, kPes);
    return 3;
  }

  const scalemd::perf::BenchEnvironment env = scalemd::perf::capture_environment();
  std::printf("scalebench %s seed=%llu seconds=%g trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("env: git=%s compiler=%s build=%s flags=\"%s\" cpu=\"%s\" nproc=%d sanitizer=%s\n",
              env.git_sha.c_str(), env.compiler.c_str(), env.build_type.c_str(),
              env.cxx_flags.c_str(), env.cpu_model.c_str(), cpus, env.sanitizer.c_str());
  std::fflush(stdout);

  try {
    const ScratchDir scratch;
    cfg.scratch_dir = scratch.path();
    SpanLog spans;
    const RunResult r = run_workload(cfg, spans);
    const std::vector<Metric>& metrics = cfg.trace ? r.per_layer : r.end_to_end;
    std::printf("\n");
    if (cfg.trace) std::printf("%s\n", spans.summary().c_str());
    for (const Metric& m : metrics) {
      std::printf("%-28s %16.8g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("operations: %lld attempted, %lld failed; output checks %s\n",
                static_cast<long long>(r.ops.attempted), static_cast<long long>(r.ops.failed),
                r.correct ? "passed" : "FAILED");
    print_json(r, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scalebench: %s\n", e.what());
    return 1;
  }
}
