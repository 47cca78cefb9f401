// Reproduces Figures 1 and 2: the grain-size distribution of non-bonded
// compute tasks per average timestep, before and after splitting the large
// face-pair computes (section 4.2.1). The "before" configuration matches the
// paper's: within-patch self computes are already split by atom count, but
// pair computes are monolithic — producing the bimodal distribution whose
// large mode (~40 ms) caps scalability; splitting removes it.
// `--json [path]` / `--out <path>` emit the distribution summaries as a
// scalemd-bench report.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"
#include "trace/grainsize.hpp"

namespace {

struct GrainStats {
  std::size_t computes = 0;
  std::size_t tasks_per_step = 0;
  double largest_ms = 0.0;
  double mean_ms = 0.0;
};

GrainStats run_case(const char* title, const scalemd::Molecule& mol,
                    bool split_pairs) {
  using namespace scalemd;
  ComputePlanOptions plan;
  plan.split_self = true;
  plan.split_face_pairs = split_pairs;
  const Workload wl(mol, MachineModel::asci_red(), {}, plan);

  constexpr int kSteps = 4;
  ParallelOptions opts;
  opts.num_pes = 1024;
  opts.machine = MachineModel::asci_red();
  ParallelSim sim(wl, opts);
  sim.run_cycle(2);
  sim.load_balance(false);
  EventLog log;
  sim.attach_sink(&log);
  sim.run_cycle(kSteps);

  const Histogram h = grainsize_histogram(log, sim.sim().entries(),
                                          WorkCategory::kNonbonded, kSteps + 1);
  std::printf("%s\n", title);
  std::printf("  computes: %zu, tasks/step: %zu, largest grain: %.1f ms, "
              "mean: %.1f ms\n\n",
              wl.plan.computes().size(), h.total(), h.max_sample(), h.mean_sample());
  std::printf("%s\n", h.render(70).c_str());
  return {wl.plan.computes().size(), h.total(), h.max_sample(), h.mean_sample()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  std::printf("Figures 1-2: non-bonded task grain sizes (ms) per average step,\n"
              "%s on 1024 PEs of ASCI-Red\n\n", mol.name.c_str());
  const GrainStats before =
      run_case("Figure 1: before splitting face-pair computes", mol, false);
  const GrainStats after =
      run_case("Figure 2: after splitting face-pair computes", mol, true);

  perf::BenchReport report = perf::make_report("fig12");
  perf::BenchRunner runner;
  const struct {
    const char* name;
    const GrainStats* s;
  } cases[] = {{"fig12/before_split", &before}, {"fig12/after_split", &after}};
  for (const auto& c : cases) {
    runner.record_value(c.name, "largest_grain_ms", "ms", c.s->largest_ms)
        .param("mean_grain_ms", c.s->mean_ms)
        .param("tasks_per_step", static_cast<double>(c.s->tasks_per_step))
        .param("computes", static_cast<double>(c.s->computes));
  }
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
