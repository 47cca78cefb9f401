// Reproduces Figures 3 and 4: Projections-style timeline views of two
// timesteps, before and after the optimized multicast (section 4.2.3). The
// view centers on the boundary between processors that own patches (and so
// carry the integration blocks, 'I') and processors beyond the patch count
// that only run compute objects — the idle gaps after each integration
// shrink once coordinate multicasts pack only once.
// `--json [path]` / `--out <path>` emit each case's step time over the
// rendered window as a scalemd-bench report.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"
#include "trace/event_log.hpp"
#include "trace/timeline.hpp"

namespace {

double run_case(const char* title, const scalemd::Workload& wl, bool optimized) {
  using namespace scalemd;
  ParallelOptions opts;
  opts.num_pes = 400;  // beyond the 245 patches, as in the paper's figures
  opts.machine = MachineModel::asci_red();
  opts.optimized_multicast = optimized;
  ParallelSim sim(wl, opts);
  sim.run_cycle(3);
  sim.load_balance(false);
  sim.run_cycle(3);
  sim.load_balance(true);

  EventLog log;
  sim.attach_sink(&log);
  sim.run_cycle(3);

  TimelineOptions view;
  view.t0 = sim.step_completion().end()[-3];  // start of the last two steps
  view.t1 = sim.step_completion().back();
  view.first_pe = 240;
  view.num_pes = 12;
  view.width = 100;
  std::printf("%s\n%s\n", title,
              render_timeline(log, sim.sim().entries(), view).c_str());
  return (view.t1 - view.t0) / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  const Workload wl(mol, MachineModel::asci_red());
  std::printf("Figures 3-4: timeline of two timesteps, %s on 400 PEs\n"
              "(PEs 240..251 straddle the last patch-owning processors)\n\n",
              mol.name.c_str());
  const double naive =
      run_case("Figure 3: naive multicast (one pack per destination)", wl, false);
  const double optimized =
      run_case("Figure 4: optimized multicast (single pack)", wl, true);

  perf::BenchReport report = perf::make_report("fig34");
  perf::BenchRunner runner;
  runner.record_value("fig34/naive_multicast", "virtual_seconds_per_step", "s", naive)
      .param("pes", 400);
  runner
      .record_value("fig34/optimized_multicast", "virtual_seconds_per_step", "s",
                    optimized)
      .param("pes", 400);
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
