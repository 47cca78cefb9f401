#include "perf/suites.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/driver.hpp"
#include "core/parallel_sim.hpp"
#include "des/simulator.hpp"
#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "serve/scheduler.hpp"

namespace scalemd::perf {

SuiteOptions default_suite_options() {
  SuiteOptions opts;
  opts.scale = bench_scale_from_env();
  return opts;
}

std::vector<std::string> suite_names() { return {"smoke", "paper"}; }

BenchReport run_suite(const std::string& name, const SuiteOptions& opts) {
  if (name == "smoke") return run_smoke_suite(opts);
  if (name == "paper") return run_paper_suite(opts);
  throw std::invalid_argument("unknown suite '" + name + "' (want smoke|paper)");
}

std::vector<int> clip_ladder(std::vector<int> pes, double scale) {
  if (scale >= 1.0) return pes;
  const std::size_t keep =
      std::max<std::size_t>(2, static_cast<std::size_t>(pes.size() * scale));
  pes.resize(std::min(keep, pes.size()));
  return pes;
}

void append_scaling_records(BenchReport& report, const std::string& prefix,
                            const std::vector<ScalingRow>& rows) {
  BenchRunner runner;
  for (const ScalingRow& r : rows) {
    runner
        .record_value(prefix + "/pes=" + std::to_string(r.pes),
                      "virtual_seconds_per_step", "s", r.seconds_per_step)
        .param("pes", r.pes)
        .param("speedup", r.speedup)
        .param("gflops", r.gflops);
  }
  for (BenchRecord& r : runner.take_records()) {
    report.benchmarks.push_back(std::move(r));
  }
}

namespace {

/// One force evaluation per sample, per kernel variant, on a smoke-sized
/// water box. The variants share one Molecule so work counters line up.
void smoke_forces(BenchRunner& runner, const SuiteOptions& opts) {
  const double side = 30.0 * std::cbrt(std::min(opts.scale, 1.0));
  const Molecule mol = make_water_box({side, side, side}, /*seed=*/42);

  const struct {
    NonbondedKernel kernel;
    const char* name;
  } variants[] = {
      {NonbondedKernel::kScalar, "scalar"},
      {NonbondedKernel::kTiled, "tiled"},
      {NonbondedKernel::kTiledThreads, "tiled_threads"},
  };
  for (const auto& v : variants) {
    EngineOptions eng_opts;
    eng_opts.nonbonded.kernel = v.kernel;
    eng_opts.nonbonded.threads = opts.threads;
    SequentialEngine eng(mol, eng_opts);  // ctor primes forces once

    // Calibrate a batch size so each sample spans a few milliseconds of
    // work: a single microsecond-scale evaluation is dominated by scheduler
    // jitter, and the gate's MAD estimate needs honest samples.
    const auto t0 = std::chrono::steady_clock::now();
    eng.compute_forces();
    const double est =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const int iters = static_cast<int>(
        std::clamp(std::ceil(5e-3 / std::max(est, 1e-9)), 1.0, 128.0));

    runner
        .time_batch(std::string("forces/") + v.name, "seconds_per_eval", iters,
                    [&eng] { eng.compute_forces(); })
        .param("atoms", mol.atom_count())
        .param("batch", iters)
        .param("threads",
               v.kernel == NonbondedKernel::kTiledThreads ? opts.threads : 1)
        .label("kernel", v.name);
  }
}

/// DES substrate throughput: wall seconds to schedule-and-drain a fixed
/// batch of null tasks across 8 virtual PEs.
void smoke_des_events(BenchRunner& runner) {
  constexpr int kTasks = 20000;
  constexpr int kPes = 8;
  runner
      .time("runtime/des_events", "seconds_per_run",
            [] {
              Simulator sim(kPes, MachineModel::asci_red());
              for (int i = 0; i < kTasks; ++i) {
                sim.inject(i % kPes, {.fn = [](ExecContext& c) { c.charge(1e-6); }});
              }
              sim.run();
            })
      .param("tasks", kTasks)
      .param("pes", kPes);
}

/// The parallel runtime end to end on both backends: the DES machine's
/// virtual s/step (deterministic) and the threaded backend's measured
/// wall-clock s/step.
void smoke_runtime(BenchRunner& runner, const SuiteOptions& opts) {
  const double side = 30.0 * std::cbrt(std::min(opts.scale, 1.0));
  Molecule mol = make_water_box({side, side, side}, /*seed=*/42);
  mol.assign_velocities(300.0, /*seed=*/7);
  const Workload wl(mol, MachineModel::asci_red());
  constexpr int kPes = 2;
  constexpr int kSteps = 2;

  {
    ParallelOptions popts;
    popts.num_pes = 8;
    ParallelSim sim(wl, popts);
    runner
        .record_value("runtime/sim_step", "virtual_seconds_per_step", "s",
                      sim.run_benchmark(2, 3))
        .param("pes", 8)
        .param("atoms", mol.atom_count());
  }

  {
    ParallelOptions popts;
    popts.num_pes = kPes;
    popts.numeric = true;
    popts.dt_fs = 1.0;
    popts.backend = BackendKind::kThreaded;
    popts.threads = opts.threads;
    ParallelSim sim(wl, popts);
    // LB warm-up as the paper runs it, then repeated timed cycles: each
    // rep's sample is the wall-clock window of one cycle over its steps.
    sim.run_cycle(2);
    sim.load_balance(/*refine_only=*/false);
    sim.run_cycle(2);
    sim.load_balance(/*refine_only=*/true);
    std::vector<double> samples;
    const int reps = std::max(1, runner.options().reps);
    for (int r = 0; r < reps; ++r) {
      const double t0 = sim.backend().time();
      sim.run_cycle(kSteps);
      samples.push_back((sim.backend().time() - t0) / kSteps);
    }
    runner
        .record_samples("runtime/threads_step", "seconds_per_step",
                        std::move(samples))
        .param("pes", kPes)
        .param("threads", opts.threads)
        .param("steps", kSteps)
        .param("atoms", mol.atom_count());
  }
}

/// The serve layer end to end: a fixed 4-job dt sweep (shared topology, so
/// the artifact cache is hot after the first job) scheduled on 2 workers
/// with forced preemption every slice. One sample = one whole batch run, so
/// the gated metric is time-valued; the throughput figures ride along as
/// params and the (deterministic) cache hit rate as its own record.
void smoke_serve(BenchRunner& runner) {
  BatchSpec batch;
  for (int j = 0; j < 4; ++j) {
    JobSpec job;
    job.name = "sweep" + std::to_string(j);
    job.priority = j % 2;
    job.scenario.seed = 42;  // one topology across the whole sweep
    job.scenario.box = 10.0;
    job.scenario.num_pes = 2;
    job.scenario.dt_fs = 0.5 + 0.5 * (j % 2);  // the swept axis
    job.scenario.cycles = 2;
    job.scenario.steps = 2;
    batch.jobs.push_back(job);
  }

  double jobs_per_hour = 0.0, steps_per_sec = 0.0, hit_rate = 0.0;
  runner
      .time("serve/batch", "seconds_per_batch",
            [&] {
              ServeOptions sopts;
              sopts.workers = 2;
              sopts.preempt_every = 1;
              WallTickSource wall;
              sopts.ticks = &wall;
              BatchScheduler sched(sopts);
              sched.submit_batch(batch);
              const ServeReport rep = sched.run();
              const double secs =
                  rep.wall_seconds > 0.0 ? rep.wall_seconds : 1e-9;
              jobs_per_hour = 3600.0 * static_cast<double>(rep.results.size()) / secs;
              steps_per_sec = static_cast<double>(rep.total_steps) / secs;
              const std::uint64_t lookups = rep.cache_hits + rep.cache_misses;
              hit_rate = lookups > 0
                             ? static_cast<double>(rep.cache_hits) / lookups
                             : 0.0;
            })
      .param("jobs", 4)
      .param("workers", 2)
      .param("jobs_per_hour", jobs_per_hour)
      .param("steps_per_sec", steps_per_sec);
  runner.record_value("serve/cache_hit_rate", "ratio", "ratio", hit_rate);
}

}  // namespace

BenchReport run_smoke_suite(const SuiteOptions& opts) {
  BenchReport report = make_report("smoke");
  BenchRunner runner({.reps = opts.reps, .warmup = opts.warmup});
  smoke_forces(runner, opts);
  smoke_des_events(runner);
  smoke_runtime(runner, opts);
  smoke_serve(runner);
  report.benchmarks = runner.take_records();
  return report;
}

BenchReport run_paper_suite(const SuiteOptions& opts) {
  BenchReport report = make_report("paper");

  {
    const Molecule mol = apoa1_like();
    const Workload wl(mol, MachineModel::asci_red());
    BenchmarkConfig cfg;
    cfg.machine = MachineModel::asci_red();
    cfg.pe_counts = clip_ladder(asci_ladder(1, 2048), opts.scale);
    append_scaling_records(report, "table2", run_scaling(wl, cfg));
  }
  {
    const Molecule mol = bc1_like();
    const Workload wl(mol, MachineModel::asci_red());
    BenchmarkConfig cfg;
    cfg.machine = MachineModel::asci_red();
    cfg.pe_counts = clip_ladder(asci_ladder(2, 2048), opts.scale);
    cfg.speedup_base = 2.0;
    append_scaling_records(report, "table3", run_scaling(wl, cfg));
  }
  return report;
}

}  // namespace scalemd::perf
