// Reproduces Table 1: the performance audit of a 1024-processor ApoA-I run
// on ASCI-Red, at the paper's intermediate optimization stage (~86 ms/step:
// grain-size splitting done, multicast still naive). Ideal = single-PE
// category times / 1024 assuming perfect scaling, exactly as the paper
// computes it.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"
#include "trace/audit.hpp"

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;
  const Molecule mol = apoa1_like();
  const Workload wl(mol, MachineModel::asci_red());

  constexpr int kPes = 1024;
  constexpr int kSteps = 5;
  ParallelOptions opts;
  opts.num_pes = kPes;
  opts.machine = MachineModel::asci_red();
  opts.optimized_multicast = false;  // the audit predates section 4.2.3
  ParallelSim sim(wl, opts);

  // Reach the balanced steady state, then profile a clean window.
  sim.run_cycle(3);
  sim.load_balance(false);
  sim.run_cycle(3);
  sim.load_balance(true);
  SummaryProfile prof(sim.sim().entries(), kPes);
  sim.attach_sink(&prof);
  const double t0 = sim.sim().time();
  sim.run_cycle(kSteps);
  const double window = sim.sim().time() - t0;

  const AuditRow ideal =
      ideal_audit(sim.ideal_nonbonded_seconds() * (kSteps + 1),
                  sim.ideal_bonded_seconds() * (kSteps + 1),
                  sim.ideal_integration_seconds() * (kSteps + 1), kPes, kSteps + 1);
  const AuditRow actual = actual_audit(prof, window, kPes, kSteps + 1);

  std::printf("Table 1: performance audit, %s on %d PEs of %s\n\n",
              mol.name.c_str(), kPes, opts.machine.name.c_str());
  std::printf("%s\n", render_audit(ideal, actual).c_str());

  Table paper({"", "Total", "Non-bonded", "Bonds", "Integration", "Overhead",
               "Imbalance", "Idle", "Receives"});
  paper.add_row(
      {"Ideal (paper)", "57.04", "52.44", "3.16", "1.44", "0", "0", "0", "0"});
  paper.add_row({"Actual (paper)", "86", "49.77", "3.9", "3.05", "7.97", "10.45",
                 "9.25", "1.61"});
  std::printf("\nPublished Table 1 (milliseconds):\n%s", paper.render().c_str());

  perf::BenchReport report = perf::make_report("table1");
  perf::BenchRunner runner;
  runner.record_value("table1/actual_total", "ms_per_step", "ms", actual.total)
      .param("pes", kPes)
      .param("nonbonded_ms", actual.nonbonded)
      .param("overhead_ms", actual.overhead)
      .param("imbalance_ms", actual.imbalance)
      .param("idle_ms", actual.idle);
  runner.record_value("table1/ideal_total", "ms_per_step", "ms", ideal.total)
      .param("pes", kPes);
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
