#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include <sys/resource.h>

#include "core/driver.hpp"
#include "core/parallel_sim.hpp"
#include "core/work_cache.hpp"
#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "seq/minimize.hpp"
#include "trace/summary.hpp"

namespace scalebench {

using scalemd::BackendKind;
using scalemd::MachineModel;
using scalemd::Molecule;
using scalemd::ParallelOptions;
using scalemd::ParallelSim;
using scalemd::Vec3;
using scalemd::Workload;

namespace {

// --- protocol constants (see README.md) ------------------------------------
constexpr int kSetupRepeats = 3;    ///< set-ups per run; setup_s is their median
constexpr int kMeasureSteps = 3;    ///< steps per LB measurement cycle
constexpr int kCycleSteps = 10;     ///< steps per timed MD cycle
constexpr double kTailPercentile = 90.0;
constexpr int kTailSamples = 10;    ///< samples required beyond the p90
/// Timed cycles per run, at least (200 steps). The time and sample rules
/// alone stop water60_threads after ~12 cycles (10 s); on a shared host
/// whose speed swings over seconds, 10 s runs spread by up to 11 %.
constexpr int kMinCycles = 20;
constexpr double kHardCapSeconds = 110.0;  ///< timed window never exceeds this
/// Membrane input relaxation: minimize until the largest per-atom force is
/// below kRelaxForceTol (kcal/mol/A), in at most kRelaxMaxSteps steps. A
/// fixed step count is not enough: some seeds still carry forces of ~1e5
/// after 50 steps and blow up in the LB warm-up.
constexpr int kRelaxMaxSteps = 400;
constexpr double kRelaxForceTol = 200.0;
constexpr double kTemperature = 300.0;
/// NVE bound, in kcal/mol per atom: |E(cycle end) - E(end of warm-up)| / atoms.
/// Per atom, not per |E|: the total energy of a relaxed membrane at 300 K
/// can sit near zero, where a relative bound fails on normal drift. About
/// three times the worst drift seen on these systems at dt = 1 fs; a
/// numerical blow-up exceeds it by orders of magnitude within one cycle.
constexpr double kDriftBound = 0.02;

struct Spec {
  std::string name;
  enum class System { kWater60, kMembrane } system;
  BackendKind backend = BackendKind::kThreaded;
  bool pme = false;
  /// The traced run also measures the DES sweep (des_sweep below).
  bool des_sweep_in_trace = false;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s = {
      {"water60_threads", Spec::System::kWater60, BackendKind::kThreaded, false, true},
      {"membrane20k_process", Spec::System::kMembrane, BackendKind::kProcess, false},
      {"water60_pme_threads", Spec::System::kWater60, BackendKind::kThreaded, true},
  };
  return s;
}

const Spec& spec_of(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// splitmix64: the velocity seed derived from the workload seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fingerprint(const std::vector<Vec3>& pos) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const Vec3& p : pos) {
    const double xyz[3] = {p.x, p.y, p.z};
    h = fnv1a(xyz, sizeof xyz, h);
  }
  return h;
}

bool all_finite(const std::vector<Vec3>& pos) {
  return std::all_of(pos.begin(), pos.end(), [](const Vec3& p) {
    return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
  });
}

/// Total energy at the last force round: potential + kinetic reduction.
/// The last round of a cycle is the only one whose velocities are
/// synchronous with its positions (velocity Verlet's closing half kick).
double total_energy_at_end(const ParallelSim& sim) {
  const int last = static_cast<int>(sim.step_completion().size()) - 1;
  const auto& ke = sim.reduction_results();
  if (last < 0 || static_cast<std::size_t>(last) >= ke.size()) return NAN;
  return sim.potential_at_step(last) + ke[static_cast<std::size_t>(last)];
}

/// Every patch finished every step and every reduction round landed.
bool cycle_complete(const ParallelSim& sim) {
  return sim.last_cycle_complete() &&
         sim.reduction_results().size() == sim.step_completion().size();
}

int objects_moved(const std::vector<int>& a, const std::vector<int>& b) {
  int moved = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) moved += a[i] != b[i];
  return moved;
}

scalemd::NonbondedOptions nonbonded_for(const Spec& s) {
  scalemd::NonbondedOptions nb;  // 12 A cutoff, program-default kernel
  if (s.pme) {
    nb.full_elec.enabled = true;
    nb.full_elec.grid_x = nb.full_elec.grid_y = nb.full_elec.grid_z = 64;
    nb.full_elec.order = 4;
    nb.full_elec.alpha = 0.35;
  }
  return nb;
}

ParallelOptions options_for(const Spec& s, const std::string& scratch_dir) {
  ParallelOptions o;
  o.num_pes = kPes;
  o.numeric = true;
  o.dt_fs = 1.0;
  o.backend = s.backend;
  if (s.backend == BackendKind::kThreaded) o.threads = kPes;
  if (s.backend == BackendKind::kProcess) {
    o.process.workers = kPes;
    o.checkpoint_every = 1;
    o.checkpoint_path = scratch_dir + "/checkpoint.bin";
  }
  return o;
}

/// A fixed metric list: every declared metric is emitted (layers a workload
/// does not exercise read 0) and setting an undeclared name is a bug.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<std::pair<std::string, std::string>>& decl) {
    for (const auto& [name, unit] : decl) values_.push_back({name, 0.0, unit});
  }
  void set(const std::string& name, double value) {
    for (Metric& m : values_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("metric not declared: " + name);
  }
  std::vector<Metric> values() const { return values_; }

 private:
  std::vector<Metric> values_;
};

/// Peak resident set of this process plus the largest waited-for child
/// (the process backend's workers), in MB.
double peak_rss_mb() {
  struct rusage self {}, kids {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

/// Generation time of the run's input: the self time of its "gen.system"
/// span, so the membrane's nested "gen.relax" (input preparation) is left out.
double generation_s(const SpanLog& spans) { return spans.self_times("gen.system").back(); }

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s: n=%zu p50=%.6g p90=%.6g (samples beyond p90: %d)\n", what, v.size(),
              percentile(v, 50.0), percentile(v, kTailPercentile),
              samples_beyond(static_cast<int>(v.size()), kTailPercentile));
}

// ---------------------------------------------------------------------------
// The paper's Table 2 sweep: frozen-mode DES of the full ApoA-I preset over
// the ASCI-Red ladder. Measured once in the traced run of water60_threads,
// for the des and lb.modeled_step_s layers (see README.md for why it is not
// a workload of its own).
// ---------------------------------------------------------------------------

struct DesSweep {
  std::vector<int> ladder;
  std::vector<double> modeled;  ///< run_scaling's s/step at each ladder point
  double events = 0.0;          ///< tasks executed over the replayed pass
  double events_per_s = 0.0;    ///< events / summed DES run_cycle wall
  double cycle_s = 0.0;         ///< mean wall of one DES run_cycle
};

/// Builds the ApoA-I Workload, runs run_scaling over the ladder, then
/// replays run_scaling's per-point protocol (ParallelSim, measure, greedy,
/// measure, refine, timed cycle) call by call for the event count and the
/// cycle walls. Each ladder point is one operation: its modeled s/step must
/// be finite, positive and reproduced bitwise by the replay.
DesSweep des_sweep(std::uint64_t seed, SpanLog& spans, OpCount& ops) {
  Molecule mol;
  {
    Span s(spans, "des.gen");
    mol = scalemd::apoa1_like(seed);  // frozen mode: no velocities needed
  }
  std::unique_ptr<Workload> wl;
  {
    Span s(spans, "des.workload");
    wl = std::make_unique<Workload>(mol, MachineModel::asci_red());
  }
  const scalemd::BenchmarkConfig base;  // program defaults: 3 measure + 5 timed steps
  DesSweep out;
  out.ladder = scalemd::asci_ladder(1, 2048);
  {
    scalemd::BenchmarkConfig full = base;
    full.pe_counts = out.ladder;
    Span s(spans, "des.run_scaling");
    for (const scalemd::ScalingRow& row : scalemd::run_scaling(*wl, full)) {
      out.modeled.push_back(row.seconds_per_step);
    }
  }
  out.modeled.resize(out.ladder.size(), NAN);

  double cycle_wall = 0.0;
  int cycles = 0;
  std::printf("DES sweep: %d atoms, %d patches; modeled s/step (run_scaling, replay):\n",
              mol.atom_count(), wl->decomp.patch_count());
  for (std::size_t i = 0; i < out.ladder.size(); ++i) {
    ParallelOptions o;  // run_scaling's options for this point
    o.num_pes = out.ladder[i];
    o.machine = base.machine;
    o.lb = base.lb;
    o.optimized_multicast = base.optimized_multicast;
    ParallelSim sim(*wl, o);
    const auto cycle = [&](int steps) {
      Span s(spans, "des.cycle");
      sim.run_cycle(steps);
      cycle_wall += s.stop();
      ++cycles;
    };
    for (const bool refine : {false, true}) {
      cycle(base.measure_steps);
      sim.load_balance(refine);
    }
    cycle(base.timed_steps);
    out.events += static_cast<double>(sim.backend().tasks_executed());
    const double replayed = sim.seconds_per_step_tail(base.timed_steps);
    const bool ok =
        std::isfinite(out.modeled[i]) && out.modeled[i] > 0.0 && replayed == out.modeled[i];
    ops.record(ok);
    std::printf("  P=%-5d %.9g %.9g %s\n", out.ladder[i], out.modeled[i], replayed,
                ok ? "identical" : "CHECK FAILED");
  }
  out.events_per_s = out.events / cycle_wall;
  out.cycle_s = cycle_wall / cycles;
  return out;
}

// ---------------------------------------------------------------------------
// MD workloads: measure -> greedy -> measure -> refine, then timed cycles.
// ---------------------------------------------------------------------------

struct MdRun {
  std::unique_ptr<Workload> wl;
  std::unique_ptr<ParallelSim> sim;
  int migrations = 0;
  double warmup_energy = NAN;
  bool warmup_ok = true;
};

/// One complete set-up: Workload, ParallelSim and the LB warm-up.
void set_up(MdRun& md, const Spec& spec, const Molecule& mol, const std::string& scratch_dir,
            SpanLog& spans) {
  md.sim.reset();
  md.wl.reset();
  Span setup(spans, "setup");
  {
    Span s(spans, "core.workload");
    md.wl = std::make_unique<Workload>(mol, MachineModel::asci_red(), nonbonded_for(spec));
  }
  {
    Span s(spans, "core.sim_ctor");
    md.sim = std::make_unique<ParallelSim>(*md.wl, options_for(spec, scratch_dir));
  }
  ParallelSim& sim = *md.sim;
  md.warmup_ok = true;
  md.migrations = 0;
  for (const bool refine : {false, true}) {
    {
      Span s(spans, "core.run_cycle.warmup");
      sim.run_cycle(kMeasureSteps);
    }
    md.warmup_ok = md.warmup_ok && cycle_complete(sim);
    const std::vector<int> home = sim.patch_home();
    const std::vector<int> pe = sim.compute_pe();
    {
      Span s(spans, refine ? "lb.refine" : "lb.greedy");
      sim.load_balance(/*refine_only=*/refine);
    }
    md.migrations += objects_moved(home, sim.patch_home()) + objects_moved(pe, sim.compute_pe());
  }
  md.warmup_energy = total_energy_at_end(sim);
}

RunResult run_md(const Spec& spec, const RunConfig& cfg, SpanLog& spans) {
  RunResult res;
  const Molecule mol = make_input(spec.name, cfg.seed, spans);
  const double gen_s = generation_s(spans);
  std::printf("system: %d atoms, box %.1f x %.1f x %.1f A, seed %llu\n", mol.atom_count(),
              mol.box.x, mol.box.y, mol.box.z, static_cast<unsigned long long>(cfg.seed));
  if (!spans.durations("gen.relax").empty()) {
    std::printf("input relaxation (to max force < %g kcal/mol/A, outside every metric): %.3f s\n",
                kRelaxForceTol, spans.durations("gen.relax").back());
  }

  MdRun md;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    set_up(md, spec, mol, cfg.scratch_dir, spans);
    setup_s.push_back(spans.durations("setup").back());
    if (!md.warmup_ok || !std::isfinite(md.warmup_energy)) {
      std::printf("CHECK FAILED: warm-up cycle incomplete or energy not finite\n");
      res.correct = false;
    }
  }
  ParallelSim& sim = *md.sim;
  std::printf("setup_s samples:");
  for (double x : setup_s) std::printf(" %.4f", x);
  std::printf("\n");

  // Timed window. In the traced run every second cycle carries the
  // SummaryProfile sink; the others stay bare, so the same run yields the
  // per-layer breakdown and the tracing overhead.
  const double e_ref = md.warmup_energy;
  const int need = samples_needed(kTailPercentile, kTailSamples);
  scalemd::SummaryProfile prof(sim.backend().entries(), kPes);
  prof.set_wall_clock(sim.backend().wall_clock());
  std::vector<double> step_s, step_traced, step_bare, cycle_walls, cycle_per_step,
      boundary_s;
  double traced_wall = 0.0;
  int traced_rounds = 0, timed_steps = 0, timed_cycles = 0;
  double worst_drift = 0.0;
  std::uint64_t tasks_before = 0, tasks_traced = 0;
  std::printf("cycle  steps     wall_s   s/step  drift/atom  traced  ok\n");
  const double t0 = now_s();
  for (int c = 0;; ++c) {
    const bool traced = cfg.trace && c % 2 == 1;
    if (traced) {
      sim.attach_sink(&prof);
      tasks_before = sim.backend().tasks_executed();
    }
    const std::size_t base = sim.step_completion().size();
    Span cycle_span(spans, "core.run_cycle");
    sim.run_cycle(kCycleSteps);
    const double wall = cycle_span.stop();
    if (traced) {
      sim.detach_sink(&prof);
      tasks_traced += sim.backend().tasks_executed() - tasks_before;
      traced_wall += wall;
      traced_rounds += kCycleSteps + 1;
    }

    // Samples: the step intervals of this cycle, bootstrap round excluded.
    const std::vector<double>& sc = sim.step_completion();
    for (int s = 1; s <= kCycleSteps && base + static_cast<std::size_t>(s) < sc.size(); ++s) {
      const double dt = sc[base + static_cast<std::size_t>(s)] -
                        sc[base + static_cast<std::size_t>(s) - 1];
      step_s.push_back(dt);
      (traced ? step_traced : step_bare).push_back(dt);
    }
    if (base + kCycleSteps < sc.size()) {
      boundary_s.push_back(wall - (sc[base + kCycleSteps] - sc[base]));
    }
    cycle_walls.push_back(wall);
    cycle_per_step.push_back(wall / kCycleSteps);
    timed_steps += kCycleSteps;
    ++timed_cycles;

    // Output checks, outside the timed call.
    const double e = total_energy_at_end(sim);
    const double drift = std::abs(e - e_ref) / mol.atom_count();
    const bool ok = cycle_complete(sim) && std::isfinite(e) && drift <= kDriftBound &&
                    all_finite(sim.gather_positions());
    worst_drift = std::max(worst_drift, std::isfinite(drift) ? drift : INFINITY);
    res.ops.record(ok);
    std::printf("%5d %6d %10.4f %8.5f %11.3e %7s %3s\n", c, kCycleSteps, wall,
                wall / kCycleSteps, drift, traced ? "yes" : "no", ok ? "ok" : "FAIL");
    std::fflush(stdout);

    const double elapsed = now_s() - t0;
    if (elapsed >= cfg.seconds && static_cast<int>(step_s.size()) >= need &&
        c + 1 >= kMinCycles) {
      break;
    }
    if (elapsed >= kHardCapSeconds) {
      std::printf("timed window stopped at the %.0f s cap with %zu samples\n",
                  kHardCapSeconds, step_s.size());
      break;
    }
  }

  const std::vector<Vec3> final_pos = sim.gather_positions();
  const std::uint64_t fp = fingerprint(final_pos);
  const double growth = cycle_per_step.back() / cycle_per_step.front();
  std::printf("per-cycle s/step series:");
  for (double x : cycle_per_step) std::printf(" %.4f", x);
  std::printf("\ncore.cycle_growth = %.4f (last timed cycle's s/step / first's)\n", growth);
  std::printf("NVE drift: worst %.3e kcal/mol per atom from E0 = %.6g kcal/mol (bound %.2g)\n",
              worst_drift, e_ref, kDriftBound);
  std::printf("fingerprint: %016llx after %d timed cycles (%d steps)\n",
              static_cast<unsigned long long>(fp), timed_cycles, timed_steps);
  print_samples("step_s", step_s);

  if (!cfg.trace) {
    double wall_sum = 0.0;
    for (double w : cycle_walls) wall_sum += w;
    MetricTable e2e(end_to_end_metrics());
    e2e.set("setup_s", gen_s + median(setup_s));
    e2e.set("step_s.p50", percentile(step_s, 50.0));
    e2e.set("step_s.p90", percentile(step_s, kTailPercentile));
    e2e.set("cycle_s_per_step", wall_sum / timed_steps);
    e2e.set("peak_rss_mb", peak_rss_mb());
    res.end_to_end = e2e.values();
    res.correct = res.correct && res.ops.failed == 0;
    return res;
  }

  // --- traced run: the per-layer breakdown -------------------------------
  std::vector<std::uint8_t> blob;
  for (int k = 0; k < 3; ++k) {
    {
      Span s(spans, "core.export_state");
      blob = sim.export_state();
    }
    {
      Span s(spans, "core.import_state");
      sim.import_state(blob);
    }
  }
  if (fingerprint(sim.gather_positions()) != fp) {
    std::printf("CHECK FAILED: export_state/import_state changed the positions\n");
    res.correct = false;
  }
  scalemd::WorkCounters work;
  {
    Span s(spans, "core.workcache");
    const scalemd::WorkCache wc(mol, md.wl->decomp, md.wl->plan, md.wl->nonbonded);
    work = wc.total();
  }

  std::map<std::string, scalemd::EntryId> ids;
  const scalemd::EntryRegistry& reg = sim.backend().entries();
  for (int id = 0; id < reg.count(); ++id) ids[reg.name(id)] = id;
  const double rounds = std::max(1, traced_rounds);
  const auto busy = [&](std::initializer_list<const char*> names) {
    double t = 0.0;
    for (const char* n : names) {
      const auto it = ids.find(n);
      if (it != ids.end()) t += prof.entry(it->second).total;
    }
    return t / rounds;
  };
  const std::vector<double> pe_busy = prof.busy_times();
  double busy_sum = 0.0, busy_max = 0.0;
  for (double b : pe_busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double busy_mean = busy_sum / kPes;

  MetricTable layer(per_layer_metrics());
  layer.set("gen.system_s", gen_s);
  layer.set("core.workload_s", median(spans.durations("core.workload")));
  layer.set("core.workcache_s", spans.durations("core.workcache").back());
  layer.set("core.sim_ctor_s", median(spans.durations("core.sim_ctor")));
  layer.set("lb.greedy_s", median(spans.durations("lb.greedy")));
  layer.set("lb.refine_s", median(spans.durations("lb.refine")));
  layer.set("ff.nonbonded.busy_s",
            busy({"ComputeNonbondedSelf::doWork", "ComputeNonbondedPair::doWork"}));
  layer.set("ff.nonbonded.pairs_tested", static_cast<double>(work.pairs_tested));
  layer.set("ff.nonbonded.pairs_computed", static_cast<double>(work.pairs_computed));
  layer.set("ff.nonbonded.hit_ratio",
            work.pairs_tested > 0 ? static_cast<double>(work.pairs_computed) /
                                        static_cast<double>(work.pairs_tested)
                                  : 0.0);
  layer.set("ff.bonded.busy_s",
            busy({"ComputeBondedIntra::doWork", "ComputeBondedInter::doWork"}));
  layer.set("core.integrate.busy_s", busy({"Patch::integrate"}));
  layer.set("ewald.spread.busy_s", busy({"PmeSlab::recvAtoms"}));
  layer.set("ewald.convolve.busy_s", busy({"PmeSlab::recvTransposeFwd"}));
  layer.set("ewald.gather.busy_s", busy({"PmeSlab::recvTransposeBwd"}));
  layer.set("ewald.force_return.busy_s", busy({"Patch::recvPmeForces"}));
  layer.set("rts.coords.busy_s", busy({"Proxy::recvCoordinates"}));
  layer.set("rts.forces.busy_s", busy({"Patch::recvForces"}));
  layer.set("rts.reduction.busy_s", busy({"Reduction::combine"}));
  layer.set("rts.messages_per_step", static_cast<double>(prof.messages()) / rounds);
  layer.set("rts.bytes_per_step", static_cast<double>(prof.message_bytes()) / rounds);
  layer.set("rts.tasks_per_step", static_cast<double>(tasks_traced) / rounds);
  layer.set("rts.idle_frac",
            traced_wall > 0.0 ? 1.0 - busy_sum / (kPes * traced_wall) : 0.0);
  layer.set("core.cycle_boundary_s", median(boundary_s));
  layer.set("core.checkpoint_bytes", static_cast<double>(blob.size()));
  layer.set("core.export_state_s", median(spans.durations("core.export_state")));
  layer.set("core.import_state_s", median(spans.durations("core.import_state")));
  layer.set("core.cycle_growth", growth);
  layer.set("lb.imbalance", busy_mean > 0.0 ? busy_max / busy_mean : 0.0);
  layer.set("lb.migrations", md.migrations);
  layer.set("core.proxies", sim.proxy_count());
  layer.set("core.max_proxies_per_patch", sim.max_proxies_per_patch());
  const double bare = percentile(step_bare, 50.0);
  layer.set("trace.overhead", bare > 0.0 ? percentile(step_traced, 50.0) / bare : 0.0);
  print_samples("step_s (traced cycles)", step_traced);
  print_samples("step_s (bare cycles)", step_bare);
  if (spec.des_sweep_in_trace) {
    const DesSweep des = des_sweep(cfg.seed, spans, res.ops);
    layer.set("des.events", des.events);
    layer.set("des.events_per_s", des.events_per_s);
    layer.set("des.cycle_s", des.cycle_s);
    for (std::size_t i = 0; i < des.ladder.size(); ++i) {
      layer.set("lb.modeled_step_s.p" + std::to_string(des.ladder[i]), des.modeled[i]);
    }
  }
  res.per_layer = layer.values();
  res.correct = res.correct && res.ops.failed == 0;
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

bool is_workload(const std::string& name) {
  const auto& n = workload_names();
  return std::find(n.begin(), n.end(), name) != n.end();
}

Molecule make_input(const std::string& workload, std::uint64_t seed, SpanLog& spans) {
  const Spec& spec = spec_of(workload);
  Span gen(spans, "gen.system");
  Molecule mol;
  switch (spec.system) {
    case Spec::System::kWater60:
      mol = scalemd::make_water_box({60.0, 60.0, 60.0}, seed);
      break;
    case Spec::System::kMembrane: {
      mol = scalemd::apoa1_like_scaled(0.6, seed);
      // The preset carries overlapping atoms (initial LJ energy ~1e21
      // kcal/mol); unrelaxed, NVE dynamics blows up within ~30 steps on
      // every backend. Relax it the way the program's minimizer is meant
      // to be used, to a force tolerance. This is input preparation, not a
      // measured layer, so it runs on the fastest sequential path (tiled
      // kernel on kPes threads, pair list) in a span of its own that
      // gen.system_s and setup_s leave out.
      Span relax(spans, "gen.relax");
      scalemd::EngineOptions eo;
      eo.nonbonded.kernel = scalemd::NonbondedKernel::kTiledThreads;
      eo.nonbonded.threads = kPes;
      eo.use_pairlist = true;
      scalemd::SequentialEngine eng(mol, eo);
      const scalemd::MinimizeResult r =
          scalemd::minimize(eng, kRelaxMaxSteps, /*max_disp=*/0.2, kRelaxForceTol);
      std::printf("input relaxation: %d minimizer steps, max force %.4g -> E %.6g kcal/mol\n",
                  r.steps, r.max_force, r.final_energy);
      if (!(r.max_force < kRelaxForceTol)) {
        throw std::runtime_error("membrane input did not relax below the force tolerance in " +
                                 std::to_string(kRelaxMaxSteps) + " minimizer steps");
      }
      const auto relaxed = eng.positions();
      std::copy(relaxed.begin(), relaxed.end(), mol.positions().begin());
      break;
    }
  }
  mol.assign_velocities(kTemperature, mix(seed));
  return mol;
}

std::uint64_t protocol_fingerprint(const std::string& workload, std::uint64_t seed,
                                   BackendKind backend, int cycles) {
  Spec spec = spec_of(workload);
  if (backend == BackendKind::kProcess) {
    throw std::invalid_argument("protocol_fingerprint: threaded or simulated backend only");
  }
  spec.backend = backend;
  SpanLog spans;
  const Molecule mol = make_input(workload, seed, spans);
  MdRun md;
  set_up(md, spec, mol, /*scratch_dir=*/"", spans);
  for (int c = 0; c < cycles; ++c) md.sim->run_cycle(kCycleSteps);
  return fingerprint(md.sim->gather_positions());
}

RunResult run_workload(const RunConfig& cfg, SpanLog& spans) {
  return run_md(spec_of(cfg.workload), cfg, spans);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> v = {
      {"setup_s", "s"},          {"step_s.p50", "s"},    {"step_s.p90", "s"},
      {"cycle_s_per_step", "s"}, {"peak_rss_mb", "MB"},
  };
  return v;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> v = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"gen.system_s", "s"},
        {"core.workload_s", "s"},
        {"core.workcache_s", "s"},
        {"core.sim_ctor_s", "s"},
        {"lb.greedy_s", "s"},
        {"lb.refine_s", "s"},
        {"ff.nonbonded.busy_s", "s"},
        {"ff.nonbonded.pairs_tested", "count"},
        {"ff.nonbonded.pairs_computed", "count"},
        {"ff.nonbonded.hit_ratio", "ratio"},
        {"ff.bonded.busy_s", "s"},
        {"core.integrate.busy_s", "s"},
        {"ewald.spread.busy_s", "s"},
        {"ewald.convolve.busy_s", "s"},
        {"ewald.gather.busy_s", "s"},
        {"ewald.force_return.busy_s", "s"},
        {"rts.coords.busy_s", "s"},
        {"rts.forces.busy_s", "s"},
        {"rts.reduction.busy_s", "s"},
        {"rts.messages_per_step", "count"},
        {"rts.bytes_per_step", "bytes"},
        {"rts.tasks_per_step", "count"},
        {"rts.idle_frac", "ratio"},
        {"core.cycle_boundary_s", "s"},
        {"core.checkpoint_bytes", "bytes"},
        {"core.export_state_s", "s"},
        {"core.import_state_s", "s"},
        {"core.cycle_growth", "ratio"},
        {"lb.imbalance", "ratio"},
        {"lb.migrations", "count"},
        {"core.proxies", "count"},
        {"core.max_proxies_per_patch", "count"},
        {"des.events", "count"},
        {"des.events_per_s", "1/s"},
        {"des.cycle_s", "s"},
    };
    for (int p : scalemd::asci_ladder(1, 2048)) {
      l.emplace_back("lb.modeled_step_s.p" + std::to_string(p), "s");
    }
    l.emplace_back("trace.overhead", "ratio");
    return l;
  }();
  return v;
}

}  // namespace scalebench
