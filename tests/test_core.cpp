#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/compute_plan.hpp"
#include "core/decomposition.hpp"
#include "core/parallel_sim.hpp"
#include "core/work_cache.hpp"
#include "check/golden.hpp"
#include "trace/event_log.hpp"
#include "trace/summary.hpp"
#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "seq/engine.hpp"
#include "seq/minimize.hpp"

namespace scalemd {
namespace {

/// Small solvated system shared by the suite (built once: generation and
/// the work-cache kernel pass dominate test time).
class CoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mol_ = new Molecule(small_solvated_chain(1500, 31));
    mol_->suggested_patch_size = 8.0;  // 3x3x3 patches for a ~24.7 A box
    nb_.cutoff = 7.5;
    nb_.switch_dist = 6.5;
    // Relax generation clashes so trajectories stay tame, then thermalize.
    EngineOptions eopts;
    eopts.nonbonded = nb_;
    SequentialEngine relax(*mol_, eopts);
    minimize(relax, 150);
    std::copy(relax.positions().begin(), relax.positions().end(),
              mol_->positions().begin());
    mol_->assign_velocities(300.0, 77);
    workload_ = new Workload(*mol_, MachineModel::asci_red(), nb_);
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete mol_;
    workload_ = nullptr;
    mol_ = nullptr;
  }

  static Molecule* mol_;
  static NonbondedOptions nb_;
  static Workload* workload_;
};

Molecule* CoreFixture::mol_ = nullptr;
NonbondedOptions CoreFixture::nb_;
Workload* CoreFixture::workload_ = nullptr;

TEST_F(CoreFixture, DecompositionAssignsEveryAtomOnce) {
  const Decomposition& d = workload_->decomp;
  std::vector<int> seen(static_cast<std::size_t>(mol_->atom_count()), 0);
  for (const auto& atoms : d.patch_atoms()) {
    for (int a : atoms) ++seen[static_cast<std::size_t>(a)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_GT(d.patch_count(), 8);
}

TEST_F(CoreFixture, PlanCoversEveryPatchPairOnce) {
  // Self computes must partition each patch's outer loop; pair computes must
  // cover each neighbor pair exactly once (possibly split into stripes).
  const auto& computes = workload_->plan.computes();
  std::vector<double> self_cover(static_cast<std::size_t>(
                                     workload_->decomp.patch_count()),
                                 0.0);
  std::map<std::pair<int, int>, double> pair_cover;
  for (const ComputeDesc& c : computes) {
    if (c.kind == ComputeKind::kSelf) {
      self_cover[static_cast<std::size_t>(c.patches[0])] += c.frac_end - c.frac_begin;
    } else if (c.kind == ComputeKind::kPair) {
      pair_cover[{c.patches[0], c.patches[1]}] += c.frac_end - c.frac_begin;
    }
  }
  for (std::size_t p = 0; p < self_cover.size(); ++p) {
    if (!workload_->decomp.patch_atoms()[p].empty()) {
      EXPECT_NEAR(self_cover[p], 1.0, 1e-9) << "patch " << p;
    }
  }
  for (const auto& [key, cover] : pair_cover) {
    EXPECT_NEAR(cover, 1.0, 1e-9);
  }
}

TEST_F(CoreFixture, BondedTermsCoveredExactlyOnce) {
  std::vector<int> bond_seen(mol_->bonds().size(), 0);
  std::vector<int> dihedral_seen(mol_->dihedrals().size(), 0);
  for (const ComputeDesc& c : workload_->plan.computes()) {
    if (c.kind == ComputeKind::kBonds) {
      for (int t : c.terms) ++bond_seen[static_cast<std::size_t>(t)];
    }
    if (c.kind == ComputeKind::kDihedrals) {
      for (int t : c.terms) ++dihedral_seen[static_cast<std::size_t>(t)];
    }
  }
  for (int s : bond_seen) EXPECT_EQ(s, 1);
  for (int s : dihedral_seen) EXPECT_EQ(s, 1);
}

TEST_F(CoreFixture, WorkCacheEnergyMatchesSequentialEngine) {
  EngineOptions opts;
  opts.nonbonded = nb_;
  SequentialEngine eng(*mol_, opts);
  EXPECT_NEAR(workload_->work.energy().total(), eng.potential().total(),
              1e-6 * std::fabs(eng.potential().total()));
  // Pair counts must match too: same pairs evaluated, differently grouped.
  EXPECT_EQ(workload_->work.total().pairs_computed, eng.work().pairs_computed);
}

TEST_F(CoreFixture, InitialPlacementBoundsProxiesBySeven) {
  ParallelOptions opts;
  opts.num_pes = 64;
  const ParallelSim sim(*workload_, opts);
  EXPECT_LE(sim.max_proxies_per_patch(), 7);
}

TEST_F(CoreFixture, ParallelForcesMatchSequentialAfterOneStep) {
  ParallelOptions opts;
  opts.num_pes = 7;
  opts.numeric = true;
  opts.dt_fs = 0.5;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(1);

  EngineOptions eopts;
  eopts.nonbonded = nb_;
  eopts.dt_fs = 0.5;
  SequentialEngine eng(*mol_, eopts);
  eng.step();

  const auto pos = sim.gather_positions();
  const auto vel = sim.gather_velocities();
  const auto frc = sim.gather_forces();
  double max_dp = 0.0, max_dv = 0.0, max_df = 0.0;
  for (int a = 0; a < mol_->atom_count(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    max_dp = std::max(max_dp, norm(pos[i] - eng.positions()[i]));
    max_dv = std::max(max_dv, norm(vel[i] - eng.velocities()[i]));
    max_df = std::max(max_df, norm(frc[i] - eng.forces()[i]));
  }
  EXPECT_LT(max_dp, 1e-9);
  EXPECT_LT(max_dv, 1e-9);
  EXPECT_LT(max_df, 1e-6);
}

TEST_F(CoreFixture, ParallelTrajectoryMatchesSequentialAcrossCyclesWithMigration) {
  ParallelOptions opts;
  opts.num_pes = 5;
  opts.numeric = true;
  opts.dt_fs = 0.5;
  opts.lb.kind = LbStrategyKind::kNone;
  ParallelSim sim(*workload_, opts);
  // Three cycles of 4 steps; atoms migrate between patches at boundaries.
  sim.run_cycle(4);
  sim.run_cycle(4);
  sim.run_cycle(4);

  EngineOptions eopts;
  eopts.nonbonded = nb_;
  eopts.dt_fs = 0.5;
  SequentialEngine eng(*mol_, eopts);
  eng.run(12);

  const auto pos = sim.gather_positions();
  double max_dp = 0.0;
  for (int a = 0; a < mol_->atom_count(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    max_dp = std::max(max_dp, norm(pos[i] - eng.positions()[i]));
  }
  // Trajectories agree to floating-point accumulation tolerance. (The
  // sequential engine re-sorts atoms into cells each step while patches keep
  // insertion order, so summation order differs.)
  EXPECT_LT(max_dp, 1e-6);
}

TEST_F(CoreFixture, PotentialAtStepZeroMatchesWorkCache) {
  ParallelOptions opts;
  opts.num_pes = 4;
  opts.numeric = true;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(1);
  EXPECT_NEAR(sim.potential_at_step(0), workload_->work.energy().total(),
              1e-6 * std::fabs(workload_->work.energy().total()));
}

// A frozen run (numeric = false) charges compute i work_cost(
// WorkCache::per_compute(i)); a numeric run with the scalar kernel charges
// work_cost of the counters its live evaluation produced. Both counts come
// from evaluate_compute, so at the first force evaluation (the WorkCache's
// coordinates) every compute must be charged the same bits: its first task
// starts at the same virtual time and lasts exactly as long in both runs.
class ChargeParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChargeParityTest, FrozenAndNumericChargeEveryComputeTheSame) {
  const GoldenSpec* spec = find_golden_spec(GetParam());
  ASSERT_NE(spec, nullptr);
  const Molecule mol = spec->make();
  NonbondedOptions nb = spec->engine.nonbonded;
  nb.kernel = NonbondedKernel::kScalar;
  const Workload wl(mol, MachineModel::asci_red(), nb);
  const std::size_t objects =
      static_cast<std::size_t>(wl.plan.migratable_count());
  ASSERT_GT(objects, 0u);

  // First task of every migratable compute object, indexed by object id.
  auto first_tasks = [&](bool numeric) {
    ParallelOptions opts;
    opts.num_pes = 4;
    opts.numeric = numeric;
    opts.dt_fs = spec->engine.dt_fs;
    ParallelSim sim(wl, opts);
    EventLog log;
    sim.attach_sink(&log);
    sim.run_cycle(1);
    sim.detach_sink(&log);
    std::vector<TaskRecord> first(objects);
    std::vector<bool> seen(objects, false);
    for (const TaskRecord& r : log.tasks()) {
      if (r.object == 0 || r.object > objects) continue;
      const auto obj = static_cast<std::size_t>(r.object - 1);
      if (!seen[obj]) first[obj] = r;
      seen[obj] = true;
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
    return first;
  };
  const std::vector<TaskRecord> frozen = first_tasks(false);
  const std::vector<TaskRecord> numeric = first_tasks(true);
  for (std::size_t i = 0; i < objects; ++i) {
    EXPECT_EQ(frozen[i].pe, numeric[i].pe) << "object " << i;
    EXPECT_EQ(frozen[i].entry, numeric[i].entry) << "object " << i;
    EXPECT_EQ(frozen[i].start, numeric[i].start) << "object " << i;
    EXPECT_EQ(frozen[i].duration, numeric[i].duration) << "object " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(GoldenPresets, ChargeParityTest,
                         ::testing::Values("waterbox", "chain"));

TEST_F(CoreFixture, ReductionCountsPatchesFrozenMode) {
  ParallelOptions opts;
  opts.num_pes = 6;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(2);
  const auto& totals = sim.reduction_results();
  ASSERT_GE(totals.size(), 3u);  // rounds 0, 1, 2 (incl. finalize)
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(totals[r], workload_->decomp.patch_count());
  }
}

TEST_F(CoreFixture, FrozenStepTimesAreDeterministic) {
  auto run = [&] {
    ParallelOptions opts;
    opts.num_pes = 12;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST_F(CoreFixture, MoreProcessorsRunFaster) {
  auto time_at = [&](int pes) {
    ParallelOptions opts;
    opts.num_pes = pes;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  const double t1 = time_at(1);
  const double t4 = time_at(4);
  const double t16 = time_at(16);
  EXPECT_LT(t4, t1 / 2.5);
  EXPECT_LT(t16, t4 / 1.5);
}

TEST_F(CoreFixture, DiffusionStrategyAlsoImproves) {
  auto timed = [&](LbStrategyKind kind) {
    ParallelOptions opts;
    opts.num_pes = 24;
    opts.lb.kind = kind;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  // The distributed strategy must beat no balancing; the centralized greedy
  // may still edge it out (the paper's trade-off).
  EXPECT_LT(timed(LbStrategyKind::kDiffusion), timed(LbStrategyKind::kNone));
}

TEST_F(CoreFixture, LoadBalancingImprovesStepTime) {
  auto timed = [&](LbStrategyKind kind) {
    ParallelOptions opts;
    opts.num_pes = 24;
    opts.lb.kind = kind;
    ParallelSim sim(*workload_, opts);
    return sim.run_benchmark(2, 3);
  };
  const double none = timed(LbStrategyKind::kNone);
  const double balanced = timed(LbStrategyKind::kGreedyRefine);
  EXPECT_LT(balanced, none);
}

TEST_F(CoreFixture, OptimizedMulticastShrinksIntegrationEntry) {
  // Section 4.2.3's claim: one packing per multicast instead of one per
  // destination shortens the coordinate-sending (integration) entry method.
  auto integration_time = [&](bool optimized) {
    ParallelOptions opts;
    opts.num_pes = 32;
    opts.optimized_multicast = optimized;
    ParallelSim sim(*workload_, opts);
    SummaryProfile prof(sim.sim().entries(), opts.num_pes);
    sim.attach_sink(&prof);
    sim.run_benchmark(2, 3);
    return std::pair(prof.category_total(WorkCategory::kIntegration),
                     prof.total_pack_cost());
  };
  const auto [integ_naive, pack_naive] = integration_time(false);
  const auto [integ_opt, pack_opt] = integration_time(true);
  EXPECT_LT(integ_opt, integ_naive);
  EXPECT_LT(pack_opt, pack_naive);
}

TEST_F(CoreFixture, StepCompletionMonotonic) {
  ParallelOptions opts;
  opts.num_pes = 8;
  ParallelSim sim(*workload_, opts);
  sim.run_cycle(3);
  const auto& completion = sim.step_completion();
  for (std::size_t i = 1; i < completion.size(); ++i) {
    EXPECT_GT(completion[i], completion[i - 1]);
  }
}

TEST_F(CoreFixture, StepTimingAccessorsClampOutOfRangeArguments) {
  ParallelOptions opts;
  opts.num_pes = 4;
  ParallelSim sim(*workload_, opts);

  // No steps run yet: every query answers 0, including absurd arguments.
  EXPECT_EQ(sim.seconds_per_step_tail(0), 0.0);
  EXPECT_EQ(sim.seconds_per_step_tail(1000000), 0.0);
  EXPECT_EQ(sim.step_completion_at(-1), 0.0);
  EXPECT_EQ(sim.step_completion_at(7), 0.0);

  sim.run_cycle(3);
  const int n = static_cast<int>(sim.step_completion().size());
  ASSERT_GE(n, 2);

  // A tail longer than history clamps to the full recorded span rather than
  // indexing past the front.
  const double full = sim.seconds_per_step_tail(n - 1);
  EXPECT_GT(full, 0.0);
  EXPECT_EQ(sim.seconds_per_step_tail(n + 50), full);
  EXPECT_EQ(sim.seconds_per_step_tail(1000000), full);
  // Degenerate spans clamp up to one step instead of dividing by zero.
  EXPECT_EQ(sim.seconds_per_step_tail(0), sim.seconds_per_step_tail(1));
  EXPECT_EQ(sim.seconds_per_step_tail(-3), sim.seconds_per_step_tail(1));

  // Bounds-checked completion lookup agrees with the raw vector in range and
  // answers 0 outside it.
  EXPECT_EQ(sim.step_completion_at(n - 1), sim.step_completion()[n - 1]);
  EXPECT_EQ(sim.step_completion_at(n), 0.0);
  EXPECT_EQ(sim.step_completion_at(-1), 0.0);
}

// attach_sink is public and the sim already holds its load-database sink:
// nine more must all fit (MultiSink once had eight fixed slots) and each
// must see the whole record stream.
TEST_F(CoreFixture, NineAttachedSinksEachSeeEveryRecord) {
  struct CountingSink : TraceSink {
    std::uint64_t tasks = 0, messages = 0;
    void on_task(const TaskRecord&) override { ++tasks; }
    void on_message(const MsgRecord&) override { ++messages; }
  };
  ParallelOptions opts;
  opts.num_pes = 4;
  ParallelSim sim(*workload_, opts);
  std::vector<CountingSink> sinks(9);
  for (CountingSink& s : sinks) sim.attach_sink(&s);
  sim.run_cycle(2);
  EXPECT_EQ(sinks[0].tasks, sim.backend().tasks_executed());
  EXPECT_GT(sinks[0].messages, 0u);
  for (const CountingSink& s : sinks) {
    EXPECT_EQ(s.tasks, sinks[0].tasks);
    EXPECT_EQ(s.messages, sinks[0].messages);
  }
  for (const CountingSink& s : sinks) sim.detach_sink(&s);
}

TEST(ComputePlanTest, SplittingReducesMaxGrainEstimate) {
  Molecule mol = make_water_box({30, 30, 30}, 3);
  mol.suggested_patch_size = 10.0;
  NonbondedOptions nb;
  nb.cutoff = 9.0;
  nb.switch_dist = 7.5;
  const Decomposition d(mol, nb.cutoff);
  const MachineModel m = MachineModel::asci_red();

  ComputePlanOptions split_off;
  split_off.split_self = false;
  split_off.split_face_pairs = false;
  const ComputePlan unsplit(d, mol, m, split_off);

  ComputePlanOptions split_on;
  split_on.target_grain = 1e-3;
  const ComputePlan split(d, mol, m, split_on);

  EXPECT_GT(split.computes().size(), unsplit.computes().size());

  const WorkCache wu(mol, d, unsplit, nb);
  const WorkCache ws(mol, d, split, nb);
  double max_u = 0.0, max_s = 0.0;
  for (std::size_t i = 0; i < unsplit.computes().size(); ++i) {
    max_u = std::max(max_u, work_cost(wu.per_compute(i), m));
  }
  for (std::size_t i = 0; i < split.computes().size(); ++i) {
    max_s = std::max(max_s, work_cost(ws.per_compute(i), m));
  }
  EXPECT_LT(max_s, max_u);
  // Total work is preserved by splitting.
  EXPECT_EQ(wu.total().pairs_computed, ws.total().pairs_computed);
}

}  // namespace
}  // namespace scalemd
