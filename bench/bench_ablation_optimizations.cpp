// Reproduces the section 4.2 narrative: the staged optimizations that took
// the 1024-PE ApoA-I step from ~120 ms to ~82 ms. Stages are cumulative:
//   A  baseline: coarse grains (no face-pair splitting), non-migratable
//      bonded work, naive multicast
//   B  + grain-size control (section 4.2.1, Figures 1-2)
//   C  + migratable intra-patch bonded computes (section 4.2.2)
//   D  + optimized multicast (section 4.2.3)  == the shipping configuration
// `--json [path]` / `--out <path>` emit per-stage times as a scalemd-bench
// report.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"

namespace {

double staged_time(const scalemd::Molecule& mol, bool split_self, bool split_pairs,
                   bool migratable_bonded, bool optimized_multicast) {
  using namespace scalemd;
  ComputePlanOptions plan;
  plan.split_self = split_self;
  plan.split_face_pairs = split_pairs;
  plan.migratable_intra_bonded = migratable_bonded;
  const Workload wl(mol, MachineModel::asci_red(), {}, plan);

  ParallelOptions opts;
  opts.num_pes = 1024;
  opts.machine = MachineModel::asci_red();
  opts.optimized_multicast = optimized_multicast;
  ParallelSim sim(wl, opts);
  return sim.run_benchmark(3, 5);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  std::printf("Optimization ablation: %s on 1024 PEs of ASCI-Red\n"
              "(paper narrative: 120 ms/step before this round of "
              "optimizations, 82 ms after)\n\n", mol.name.c_str());

  Table t({"stage", "ms/step", "speedup vs 1 PE"});
  const double t1 = 57.04;  // calibrated single-PE step, seconds
  struct Stage {
    const char* name;
    const char* slug;
    bool split_self, split_pairs, bonded, multicast;
  };
  const Stage stages[] = {
      {"A: monolithic computes (14 per cube)", "A_monolithic",
       false, false, false, false},
      {"B: + split self computes by atoms", "B_split_self",
       true, false, false, false},
      {"C: + split face-pair computes (4.2.1)", "C_split_pairs",
       true, true, false, false},
      {"D: + migratable intra bonded (4.2.2)", "D_migratable_bonded",
       true, true, true, false},
      {"E: + optimized multicast (4.2.3)", "E_optimized_multicast",
       true, true, true, true},
  };
  perf::BenchRunner runner;
  for (const Stage& s : stages) {
    const double sec =
        staged_time(mol, s.split_self, s.split_pairs, s.bonded, s.multicast);
    t.add_row({s.name, fmt_fixed(sec * 1e3, 1), fmt_sig(t1 / sec, 3)});
    runner
        .record_value(std::string("ablation_opt/") + s.slug,
                      "virtual_seconds_per_step", "s", sec)
        .param("pes", 1024)
        .param("speedup_vs_1pe", t1 / sec)
        .label("stage", s.slug);
  }
  std::printf("%s", t.render().c_str());

  perf::BenchReport report = perf::make_report("ablation_opt");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
