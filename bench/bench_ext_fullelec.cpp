// EXTENSION (beyond the paper's benchmarks): scalability of cutoff MD with a
// grid-based full-electrostatics (PME) phase added to every step. The paper
// notes the grid-based component "consume[s] a small fraction of the total
// computation time ... but their contribution to scalability must still be
// addressed" and defers its parallelization to ongoing research [14-16].
// This bench quantifies that deferred problem on our machine model.
//
// The PME phase per step: local charge spreading/gathering over N/P atoms,
// two 3D FFTs over a grid distributed as slabs (each needing one all-to-all
// transpose of grid/P data per FFT), and the per-slab reciprocal multiply.
// The all-to-alls are what bite: they scale as messages ~ P per PE.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"

namespace {

using namespace scalemd;

/// Virtual seconds one PE spends in the PME phase, plus the all-to-all
/// communication, appended after the cutoff step completes (conservative:
/// no overlap). Grid 108x108x80-ish -> 96^3 for ApoA-I.
double pme_phase_seconds(const Workload& wl, int pes, const MachineModel& m) {
  const double n_atoms = static_cast<double>(wl.mol->atom_count());
  const double grid = 96.0 * 96.0 * 96.0;
  // Work: ~300 flop-equivalents per atom for order-4 spread+gather, and
  // ~5 log2(G) per grid point per FFT pair, at the machine's per-pair rate
  // normalized to ~75 flops (see driver.cpp).
  const double flop_rate = 75.0 / m.pair_cost;  // flops per virtual second
  const double local = (300.0 * n_atoms / pes +
                        2.0 * 5.0 * grid * std::log2(grid) / pes) / flop_rate;

  // Two all-to-all transposes per step: each PE exchanges grid/P complex
  // points (16 B) with every other PE.
  const double bytes_total = 16.0 * grid / pes;
  const int partners = pes - 1;
  double comm = 0.0;
  if (partners > 0) {
    const double per_msg = bytes_total / partners;
    comm = 2.0 * partners *
           (m.send_overhead + m.recv_overhead + m.latency + per_msg * m.byte_time +
            per_msg * (m.pack_byte_cost + m.unpack_byte_cost));
  }
  return local + comm;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;
  const Molecule mol = apoa1_like();
  const Workload wl(mol, MachineModel::asci_red());
  const MachineModel machine = MachineModel::asci_red();

  std::printf("Extension: cutoff-only vs cutoff + per-step PME phase, %s on "
              "ASCI-Red\n(s/step; PME phase modeled as slab-decomposed grid "
              "work + 2 all-to-all transposes)\n\n", mol.name.c_str());

  Table t({"Processors", "cutoff only", "with PME", "PME share", "speedup w/ PME"});
  perf::BenchRunner runner;
  double base = 0.0;
  for (int pes : {1, 16, 64, 256, 1024, 2048}) {
    ParallelOptions opts;
    opts.num_pes = pes;
    opts.machine = machine;
    ParallelSim sim(wl, opts);
    const double cutoff = sim.run_benchmark(3, 5);
    const double pme = pme_phase_seconds(wl, pes, machine);
    const double total = cutoff + pme;
    if (base == 0.0) base = total;
    t.add_row({std::to_string(pes), fmt_sig(cutoff, 3), fmt_sig(total, 3),
               fmt_fixed(100.0 * pme / total, 1) + "%",
               fmt_sig(base / total, 3)});
    runner
        .record_value("fullelec/with_pme/pes=" + std::to_string(pes),
                      "virtual_seconds_per_step", "s", total)
        .param("pes", pes)
        .param("cutoff_seconds", cutoff)
        .param("pme_share", pme / total);
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("The grid phase is <8%% of one-processor work but, carried by\n"
              "all-to-all transposes, grows to dominate at thousands of PEs —\n"
              "the scalability problem the paper defers to [14-16], and why\n"
              "NAMD pairs PME with multiple timestepping (see\n"
              "examples/full_electrostatics).\n");

  perf::BenchReport report = perf::make_report("fullelec");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
