// Reproduces the section 3 scalability claim: atom decomposition (replicated
// data) and force decomposition are not scalable; the hybrid force/spatial
// decomposition is. All three run the same ApoA-I-class workload on the same
// ASCI-Red machine model, with the baselines granted perfectly balanced
// compute (which flatters them). `--json [path]` / `--out <path>` emit the
// per-strategy step times as a scalemd-bench report.

#include <cstdio>

#include "bench_common.hpp"
#include "core/baselines.hpp"
#include "gen/presets.hpp"

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  const Workload wl(mol, MachineModel::asci_red());
  const MachineModel machine = MachineModel::asci_red();

  std::printf("Decomposition ablation: %s (%d atoms) on ASCI-Red\n"
              "(s/step; paper section 3: atom/force decomposition are "
              "theoretically non-scalable)\n\n", mol.name.c_str(), mol.atom_count());

  perf::BenchRunner runner;
  Table t({"Processors", "atom decomp", "force decomp", "hybrid (NAMD)",
           "hybrid speedup"});
  double hybrid_base = 0.0;
  for (int pes : {1, 4, 16, 64, 256, 1024, 2048}) {
    const double ad = atom_decomposition_step(wl, pes, machine);
    const double fd = force_decomposition_step(wl, pes, machine);
    ParallelOptions opts;
    opts.num_pes = pes;
    opts.machine = machine;
    ParallelSim sim(wl, opts);
    const double hybrid = sim.run_benchmark(3, 5);
    if (hybrid_base == 0.0) hybrid_base = hybrid;
    t.add_row({std::to_string(pes), fmt_sig(ad, 3), fmt_sig(fd, 3),
               fmt_sig(hybrid, 3), fmt_sig(hybrid_base / hybrid, 3)});
    const std::string suffix = "/pes=" + std::to_string(pes);
    runner.record_value("ablation_decomp/atom" + suffix,
                        "virtual_seconds_per_step", "s", ad).param("pes", pes);
    runner.record_value("ablation_decomp/force" + suffix,
                        "virtual_seconds_per_step", "s", fd).param("pes", pes);
    runner.record_value("ablation_decomp/hybrid" + suffix,
                        "virtual_seconds_per_step", "s", hybrid).param("pes", pes);
  }
  std::printf("%s", t.render().c_str());

  perf::BenchReport report = perf::make_report("ablation_decomp");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
