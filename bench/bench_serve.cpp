// Serve-layer throughput: one fixed 6-job batch (a dt sweep sharing one
// topology plus a 2-replica fan-out) run through the BatchScheduler at
// several worker counts, with and without the derived-topology artifact
// cache. Reports seconds per batch (the gated, time-valued metric) with
// jobs/hour and aggregate steps/sec as params, plus the deterministic cache
// hit rate.
//
//   bench_serve [--reps N] [--warmup N] [--json [path] | --out path]
//   bench_serve --workers 1,2,4     worker counts to sweep (default 1,2,4)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/scheduler.hpp"

namespace scalemd {
namespace {

BatchSpec make_bench_batch() {
  BatchSpec batch;
  for (int j = 0; j < 4; ++j) {
    JobSpec job;
    job.name = "sweep" + std::to_string(j);
    job.priority = j % 2;
    job.scenario.seed = 42;  // one topology across the sweep jobs
    job.scenario.box = 10.0;
    job.scenario.num_pes = 2;
    job.scenario.dt_fs = 0.5 + 0.25 * j;  // the swept axis
    job.scenario.cycles = 2;
    job.scenario.steps = 2;
    batch.jobs.push_back(job);
  }
  JobSpec rep;
  rep.name = "equil";
  rep.replicas = 2;
  rep.scenario.seed = 7;
  rep.scenario.box = 10.0;
  rep.scenario.num_pes = 2;
  rep.scenario.cycles = 2;
  rep.scenario.steps = 2;
  batch.jobs.push_back(rep);
  return batch;
}

struct BatchStats {
  double jobs_per_hour = 0.0;
  double steps_per_sec = 0.0;
  double hit_rate = 0.0;
};

BatchStats run_once(const BatchSpec& batch, int workers, bool use_cache,
                    int preempt_every) {
  ServeOptions sopts;
  sopts.workers = workers;
  sopts.preempt_every = preempt_every;
  sopts.use_cache = use_cache;
  WallTickSource wall;
  sopts.ticks = &wall;
  BatchScheduler sched(sopts);
  sched.submit_batch(batch);
  const ServeReport rep = sched.run();
  const double secs = rep.wall_seconds > 0.0 ? rep.wall_seconds : 1e-9;
  BatchStats s;
  s.jobs_per_hour = 3600.0 * static_cast<double>(rep.results.size()) / secs;
  s.steps_per_sec = static_cast<double>(rep.total_steps) / secs;
  const std::uint64_t lookups = rep.cache_hits + rep.cache_misses;
  s.hit_rate =
      lookups > 0 ? static_cast<double>(rep.cache_hits) / lookups : 0.0;
  return s;
}

}  // namespace
}  // namespace scalemd

int main(int argc, char** argv) {
  using namespace scalemd;
  bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  std::vector<int> worker_counts{1, 2, 4};
  for (std::size_t i = 1; i < args.passthrough.size(); ++i) {
    const char* a = args.passthrough[i];
    if (std::strcmp(a, "--workers") == 0 && i + 1 < args.passthrough.size()) {
      worker_counts.clear();
      std::string list = args.passthrough[++i];
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        worker_counts.push_back(
            std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma == std::string::npos ? list.size() : comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a);
      return 2;
    }
  }

  const BatchSpec batch = make_bench_batch();
  const int jobs = static_cast<int>(expand_batch(batch).size());
  perf::BenchRunner runner(args.bench);

  for (int workers : worker_counts) {
    if (workers < 1) continue;
    BatchStats last;
    runner
        .time("serve/batch/workers=" + std::to_string(workers),
              "seconds_per_batch",
              [&] { last = run_once(batch, workers, true, 1); })
        .param("jobs", jobs)
        .param("workers", workers)
        .param("jobs_per_hour", last.jobs_per_hour)
        .param("steps_per_sec", last.steps_per_sec);
    std::printf("workers=%d: %8.1f jobs/hour, %8.0f steps/sec, "
                "cache hit rate %.0f%%\n",
                workers, last.jobs_per_hour, last.steps_per_sec,
                100.0 * last.hit_rate);
    if (workers == worker_counts.front()) {
      runner.record_value("serve/cache_hit_rate", "ratio", "ratio", last.hit_rate);
      // The same batch with the artifact cache disabled, for the
      // cache-benefit delta in the printed table (not gated: cold builds
      // are the uncommon path).
      BatchStats cold;
      runner
          .time("serve/batch/no_cache", "seconds_per_batch",
                [&] { cold = run_once(batch, workers, false, 1); })
          .param("jobs", jobs)
          .param("workers", workers);
      std::printf("workers=%d (no cache): %8.1f jobs/hour\n", workers,
                  cold.jobs_per_hour);
    }
  }

  perf::BenchReport report = perf::make_report("serve");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
