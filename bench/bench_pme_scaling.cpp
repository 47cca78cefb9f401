// Scaling of the *real* parallel-PME pipeline (src/core/parallel_sim.cpp):
// patches deposit charges onto slab objects, the slab-decomposed 3D FFT
// exchanges transpose messages, and the reciprocal forces ride force-return
// messages back — all as first-class DES objects under the machine model.
// This replaces the closed-form estimate of bench_ext_fullelec with the
// message-driven runtime actually scheduling the phases.
//
// Three experiments:
//   1. Per-phase modeled cost (spread / FFT / gather) of one slab's critical
//      path as the PE count (and with it the slab count) grows.
//   2. End-to-end s/step: cutoff-only vs cutoff + parallel PME.
//   3. Dedicated-PME-ranks ablation: pinning the slabs onto a tail of
//      reserved PEs vs spreading them round-robin over all PEs.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/parallel_sim.hpp"
#include "ewald/full_elec.hpp"
#include "ewald/pme_slab.hpp"
#include "gen/presets.hpp"

namespace {

using namespace scalemd;

FullElecOptions bench_full_elec() {
  FullElecOptions fe;
  fe.enabled = true;
  fe.alpha = 0.35;
  fe.grid_x = fe.grid_y = fe.grid_z = 64;
  fe.order = 4;
  return fe;
}

/// The three modeled phase components of one slab, mirroring the charges
/// ParallelSim::pme_phase_cost applies (spread and gather are symmetric; the
/// FFT part sums the forward/inverse 2D halves and the full-z column FFTs).
struct SlabPhaseCost {
  double spread = 0.0;
  double fft = 0.0;
  double gather = 0.0;
  double total() const { return spread + fft + gather; }
};

SlabPhaseCost slab_phase_cost(const PmeSlabPlan& plan, int slab, int atoms,
                              const MachineModel& m) {
  const PmeOptions& o = plan.options();
  const double stencil = static_cast<double>(atoms) *
                         std::pow(static_cast<double>(o.order), 3.0) /
                         static_cast<double>(plan.slabs());
  const double lx = std::log2(static_cast<double>(o.grid_x));
  const double ly = std::log2(static_cast<double>(o.grid_y));
  const double lz = std::log2(static_cast<double>(o.grid_z));
  SlabPhaseCost c;
  c.spread = stencil * m.pme_spread_cost;
  c.gather = stencil * m.pme_spread_cost;
  c.fft = 2.0 * static_cast<double>(plan.plane_points(slab)) * (lx + ly) *
              m.fft_point_cost +
          static_cast<double>(plan.column_points(slab)) * (2.0 * lz + 1.0) *
              m.fft_point_cost;
  return c;
}

double run_seconds_per_step(const Workload& wl, int pes, int slabs,
                            int dedicated, const MachineModel& machine) {
  ParallelOptions opts;
  opts.num_pes = pes;
  opts.machine = machine;
  opts.pme.slabs = slabs;
  opts.pme.dedicated_ranks = dedicated;
  ParallelSim sim(wl, opts);
  return sim.run_benchmark(3, 5);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  const MachineModel machine = MachineModel::asci_red();
  NonbondedOptions nb_cut;
  NonbondedOptions nb_pme = nb_cut;
  nb_pme.full_elec = bench_full_elec();
  const Workload cutoff_wl(mol, machine, nb_cut);
  const Workload pme_wl(mol, machine, nb_pme);

  std::printf(
      "Parallel PME in the message-driven runtime, %s on ASCI-Red\n"
      "(64^3 grid, order 4; slabs = min(pes, 16); modeled virtual seconds)\n\n",
      mol.name.c_str());

  perf::BenchRunner runner;

  // --- 1: per-phase critical path vs PE count ---------------------------
  Table phases({"Processors", "slabs", "spread", "FFT", "gather", "PME total"});
  for (int pes : {1, 2, 4, 8, 16, 32, 64}) {
    const int slabs = std::min(pes, 16);
    const PmeSlabPlan plan(mol.box, to_pme_options(nb_pme.full_elec), slabs);
    SlabPhaseCost worst;
    for (int s = 0; s < slabs; ++s) {
      const SlabPhaseCost c =
          slab_phase_cost(plan, s, mol.atom_count(), machine);
      if (c.total() > worst.total()) worst = c;
    }
    phases.add_row({std::to_string(pes), std::to_string(slabs),
                    fmt_sig(worst.spread, 3), fmt_sig(worst.fft, 3),
                    fmt_sig(worst.gather, 3), fmt_sig(worst.total(), 3)});
    runner
        .record_value("pme_scaling/phase/pes=" + std::to_string(pes),
                      "virtual_seconds_per_step", "s", worst.total())
        .param("pes", pes)
        .param("slabs", slabs)
        .param("spread_seconds", worst.spread)
        .param("fft_seconds", worst.fft)
        .param("gather_seconds", worst.gather);
  }
  std::printf("%s\n", phases.render().c_str());

  // --- 2: end-to-end cutoff vs cutoff + PME -----------------------------
  Table endToEnd({"Processors", "cutoff only", "with PME", "PME overhead"});
  double base_cut = 0.0, base_pme = 0.0;
  for (int pes : {1, 2, 4, 8, 16, 32, 64}) {
    const int slabs = std::min(pes, 16);
    const double cut = run_seconds_per_step(cutoff_wl, pes, slabs, 0, machine);
    const double pme = run_seconds_per_step(pme_wl, pes, slabs, 0, machine);
    if (base_cut == 0.0) { base_cut = cut; base_pme = pme; }
    endToEnd.add_row({std::to_string(pes), fmt_sig(cut, 3), fmt_sig(pme, 3),
                      fmt_fixed(100.0 * (pme - cut) / pme, 1) + "%"});
    runner
        .record_value("pme_scaling/with_pme/pes=" + std::to_string(pes),
                      "virtual_seconds_per_step", "s", pme)
        .param("pes", pes)
        .param("cutoff_seconds", cut)
        .param("pme_overhead", (pme - cut) / pme);
  }
  std::printf("%s\n", endToEnd.render().c_str());
  std::printf("speedup at 64 PEs: cutoff %s, with PME %s\n\n",
              fmt_sig(base_cut /
                          run_seconds_per_step(cutoff_wl, 64, 16, 0, machine),
                      3)
                  .c_str(),
              fmt_sig(base_pme / run_seconds_per_step(pme_wl, 64, 16, 0, machine),
                      3)
                  .c_str());

  // --- 3: dedicated-PME-ranks ablation at 32 PEs ------------------------
  Table dedicated({"dedicated ranks", "s/step", "vs spread"});
  double spread_base = 0.0;
  for (int ded : {0, 1, 2, 4, 8}) {
    const double s = run_seconds_per_step(pme_wl, 32, 8, ded, machine);
    if (ded == 0) spread_base = s;
    dedicated.add_row({std::to_string(ded), fmt_sig(s, 3),
                       fmt_fixed(100.0 * (s - spread_base) / spread_base, 1) +
                           "%"});
    runner
        .record_value("pme_scaling/dedicated/ded=" + std::to_string(ded),
                      "virtual_seconds_per_step", "s", s)
        .param("pes", 32)
        .param("slabs", 8)
        .param("dedicated", ded);
  }
  std::printf("%s\n", dedicated.render().c_str());
  std::printf(
      "Slabs placed round-robin interleave with patch/compute work; a small\n"
      "dedicated tail removes that contention at the price of idling the\n"
      "reserved PEs between reciprocal phases — the classic NAMD trade-off.\n");

  perf::BenchReport report = perf::make_report("pme_scaling");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
