// Load-balancing strategy ablation (section 3.2): the measurement-based
// greedy+refine strategy against no balancing (static placement), random
// placement, and a communication-blind greedy. Also reports the proxy
// counts each strategy induces — the communication price of ignoring the
// object communication graph. `--json [path]` / `--out <path>` emit the
// per-strategy step times as a scalemd-bench report.

#include <cstdio>

#include "bench_common.hpp"
#include "gen/presets.hpp"
#include "trace/summary.hpp"
#include "util/stats.hpp"

namespace {

struct Result {
  double ms_per_step;
  int proxies;
  double imbalance;
};

Result run_with(const scalemd::Workload& wl, scalemd::LbStrategyKind kind, int pes) {
  using namespace scalemd;
  ParallelOptions opts;
  opts.num_pes = pes;
  opts.machine = MachineModel::asci_red();
  opts.lb.kind = kind;
  ParallelSim sim(wl, opts);
  SummaryProfile prof(sim.sim().entries(), pes);
  const double sec = [&] {
    sim.run_cycle(3);
    sim.load_balance(false);
    sim.run_cycle(3);
    sim.load_balance(true);
    sim.attach_sink(&prof);
    sim.run_cycle(5);
    return sim.seconds_per_step_tail(5);
  }();
  return {sec * 1e3, sim.proxy_count(), imbalance_ratio(prof.busy_times())};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scalemd;
  const bench::CommonArgs args = bench::parse_common_args(argc, argv);
  if (args.error) return 2;

  const Molecule mol = apoa1_like();
  const Workload wl(mol, MachineModel::asci_red());

  std::printf("Load-balancing strategy ablation: %s on ASCI-Red\n\n",
              mol.name.c_str());

  const struct {
    const char* name;
    const char* slug;
    LbStrategyKind kind;
  } strategies[] = {
      {"none (static initial placement)", "none", LbStrategyKind::kNone},
      {"random", "random", LbStrategyKind::kRandom},
      {"greedy, comm-blind", "greedy_nocomm", LbStrategyKind::kGreedyNoComm},
      {"diffusion (distributed)", "diffusion", LbStrategyKind::kDiffusion},
      {"greedy, proxy-aware", "greedy", LbStrategyKind::kGreedy},
      {"greedy + refine (paper)", "greedy_refine", LbStrategyKind::kGreedyRefine},
  };

  perf::BenchRunner runner;
  for (int pes : {256, 1024}) {
    Table t({"strategy", "ms/step", "proxies", "max/avg load"});
    for (const auto& s : strategies) {
      const Result r = run_with(wl, s.kind, pes);
      t.add_row({s.name, fmt_fixed(r.ms_per_step, 1), std::to_string(r.proxies),
                 fmt_fixed(r.imbalance, 2)});
      runner
          .record_value(std::string("ablation_lb/") + s.slug +
                            "/pes=" + std::to_string(pes),
                        "virtual_ms_per_step", "ms", r.ms_per_step)
          .param("pes", pes)
          .param("proxies", r.proxies)
          .param("imbalance", r.imbalance)
          .label("strategy", s.slug);
    }
    std::printf("P = %d:\n%s\n", pes, t.render().c_str());
  }

  perf::BenchReport report = perf::make_report("ablation_lb");
  report.benchmarks = runner.take_records();
  return bench::emit_report(args, report);
}
