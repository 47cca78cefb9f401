#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gen/presets.hpp"
#include "gen/water_box.hpp"
#include "lb/diffusion.hpp"
#include "lb/naive.hpp"
#include "lb/refine.hpp"
#include "seq/engine.hpp"
#include "seq/minimize.hpp"
#include "seq/mts.hpp"
#include "topo/io.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace scalemd {
namespace {

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(MinimizeTest, ReducesEnergyAndForce) {
  Molecule mol = small_solvated_chain(900, 13);
  EngineOptions opts;
  opts.nonbonded.cutoff = 8.0;
  opts.nonbonded.switch_dist = 6.5;
  SequentialEngine eng(mol, opts);
  const MinimizeResult r = minimize(eng, 200);
  EXPECT_LT(r.final_energy, r.initial_energy);
  EXPECT_GT(r.steps, 0);
}

TEST(MinimizeTest, StopsEarlyWhenConverged) {
  // A single diatomic at its bond minimum: nothing to do.
  Molecule mol;
  mol.box = {20, 20, 20};
  const int t = mol.params.add_lj_type(1e-9, 0.1);
  const int b = mol.params.add_bond_param(100, 2.0);
  mol.params.finalize();
  mol.add_atom({12, 0, t}, {9, 10, 10});
  mol.add_atom({12, 0, t}, {11, 10, 10});
  mol.add_bond(0, 1, b);
  SequentialEngine eng(mol, {});
  const MinimizeResult r = minimize(eng, 100, 0.2, /*force_tol=*/1.0);
  EXPECT_EQ(r.steps, 0);
}

TEST(MinimizeTest, ConservationAfterMinimization) {
  Molecule mol = make_water_box({14, 14, 14}, 3);
  EngineOptions opts;
  opts.nonbonded.cutoff = 6.0;
  opts.nonbonded.switch_dist = 5.0;
  opts.dt_fs = 0.5;
  SequentialEngine eng(mol, opts);
  minimize(eng, 200);
  // Thermalize from the relaxed structure and check tight conservation.
  Molecule relaxed = mol;
  std::copy(eng.positions().begin(), eng.positions().end(),
            relaxed.positions().begin());
  relaxed.assign_velocities(150.0, 3);
  SequentialEngine run(relaxed, opts);
  const double e0 = run.total_energy();
  run.run(200);
  EXPECT_NEAR(run.total_energy(), e0, 0.005 * std::fabs(e0) + 0.5);
}

// ---------------------------------------------------------------------------
// Multiple timestepping
// ---------------------------------------------------------------------------

/// Shared relaxed water box for the MTS suite.
Molecule relaxed_water() {
  Molecule mol = make_water_box({13, 13, 13}, 5);
  EngineOptions opts;
  opts.nonbonded.cutoff = 6.0;
  opts.nonbonded.switch_dist = 5.0;
  SequentialEngine eng(mol, opts);
  minimize(eng, 150);
  std::copy(eng.positions().begin(), eng.positions().end(),
            mol.positions().begin());
  mol.assign_velocities(200.0, 5);
  return mol;
}

TEST(MtsTest, SlowEveryOneMatchesVelocityVerlet) {
  const Molecule mol = relaxed_water();
  MtsOptions mopts;
  mopts.nonbonded.cutoff = 6.0;
  mopts.nonbonded.switch_dist = 5.0;
  mopts.dt_fast_fs = 0.5;
  mopts.slow_every = 1;
  MtsEngine mts(mol, mopts);
  mts.run(10);

  EngineOptions eopts;
  eopts.nonbonded = mopts.nonbonded;
  eopts.dt_fs = 0.5;
  SequentialEngine vv(mol, eopts);
  vv.run(10);

  double max_dp = 0.0;
  for (std::size_t i = 0; i < vv.positions().size(); ++i) {
    max_dp = std::max(max_dp, norm(mts.engine().positions()[i] - vv.positions()[i]));
  }
  EXPECT_LT(max_dp, 1e-9);
}

TEST(MtsTest, ConservesEnergyAtModerateRatio) {
  const Molecule mol = relaxed_water();
  MtsOptions mopts;
  mopts.nonbonded.cutoff = 6.0;
  mopts.nonbonded.switch_dist = 5.0;
  mopts.dt_fast_fs = 0.5;
  mopts.slow_every = 4;
  MtsEngine mts(mol, mopts);
  const double e0 = mts.total_energy();
  mts.run(50);  // 200 fs of dynamics, slow forces every 2 fs
  EXPECT_NEAR(mts.total_energy(), e0, 0.02 * std::fabs(e0) + 1.0);
}

TEST(MtsTest, SavesSlowEvaluations) {
  const Molecule mol = relaxed_water();
  MtsOptions mopts;
  mopts.nonbonded.cutoff = 6.0;
  mopts.nonbonded.switch_dist = 5.0;
  mopts.slow_every = 4;
  MtsEngine mts(mol, mopts);
  const int before = mts.slow_evaluations();
  mts.run(8);  // 32 inner steps
  EXPECT_EQ(mts.slow_evaluations() - before, 8);
}

// ---------------------------------------------------------------------------
// Diffusion load balancing
// ---------------------------------------------------------------------------

LbProblem diffusion_problem(int pes, int objs, std::uint64_t seed) {
  Rng rng(seed);
  LbProblem p;
  p.num_pes = pes;
  p.background.assign(static_cast<std::size_t>(pes), 0.05);
  for (int i = 0; i < objs / 4; ++i) p.patch_home.push_back(i % pes);
  for (int i = 0; i < objs; ++i) {
    LbObject o;
    o.load = rng.uniform(0.1, 1.0);
    o.current_pe = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(pes / 4 + 1)));
    o.patch_a = i % (objs / 4);
    p.objects.push_back(o);
  }
  return p;
}

TEST(DiffusionTest, ImprovesImbalance) {
  const LbProblem p = diffusion_problem(32, 400, 3);
  const double before = imbalance_ratio(pe_loads(p, identity_map(p)));
  const LbAssignment map = diffusion_map(p);
  const double after = imbalance_ratio(pe_loads(p, map));
  EXPECT_LT(after, before);
  EXPECT_LT(after, 1.35);
}

TEST(DiffusionTest, ValidAssignment) {
  const LbProblem p = diffusion_problem(16, 100, 7);
  for (int pe : diffusion_map(p)) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, 16);
  }
}

TEST(DiffusionTest, SinglePeNoOp) {
  const LbProblem p = diffusion_problem(1, 20, 9);
  const LbAssignment map = diffusion_map(p);
  for (int pe : map) EXPECT_EQ(pe, 0);
}

TEST(DiffusionTest, BalancedInputStaysPut) {
  LbProblem p;
  p.num_pes = 4;
  p.background.assign(4, 0.0);
  p.patch_home = {0, 1, 2, 3};
  for (int i = 0; i < 4; ++i) {
    p.objects.push_back({.load = 1.0, .current_pe = i, .patch_a = i});
  }
  const LbAssignment map = diffusion_map(p);
  EXPECT_EQ(migration_count(identity_map(p), map), 0);
}

// ---------------------------------------------------------------------------
// Molecule serialization
// ---------------------------------------------------------------------------

TEST(MoleculeIoTest, RoundTripPreservesEverything) {
  Molecule mol = small_solvated_chain(800, 17);
  mol.assign_velocities(300.0, 4);
  std::stringstream ss;
  save_molecule(mol, ss);
  const Molecule back = load_molecule(ss);

  EXPECT_EQ(back.name, mol.name);
  EXPECT_EQ(back.atom_count(), mol.atom_count());
  EXPECT_EQ(back.bonds().size(), mol.bonds().size());
  EXPECT_EQ(back.angles().size(), mol.angles().size());
  EXPECT_EQ(back.dihedrals().size(), mol.dihedrals().size());
  EXPECT_EQ(back.impropers().size(), mol.impropers().size());
  EXPECT_EQ(back.params.lj_type_count(), mol.params.lj_type_count());
  EXPECT_DOUBLE_EQ(back.suggested_patch_size, mol.suggested_patch_size);
  for (int i = 0; i < mol.atom_count(); ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_EQ(back.positions()[s], mol.positions()[s]);
    EXPECT_EQ(back.velocities()[s], mol.velocities()[s]);
    EXPECT_DOUBLE_EQ(back.atoms()[s].charge, mol.atoms()[s].charge);
  }
}

TEST(MoleculeIoTest, RoundTripPreservesEnergy) {
  Molecule mol = small_solvated_chain(600, 19);
  std::stringstream ss;
  save_molecule(mol, ss);
  const Molecule back = load_molecule(ss);
  SequentialEngine a(mol, {});
  SequentialEngine b(back, {});
  EXPECT_DOUBLE_EQ(a.potential().total(), b.potential().total());
}

TEST(MoleculeIoTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not-a-molecule\n";
  EXPECT_THROW(load_molecule(ss), std::runtime_error);
}

TEST(MoleculeIoTest, RejectsTruncated) {
  Molecule mol = small_solvated_chain(300, 2);
  std::stringstream ss;
  save_molecule(mol, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(load_molecule(cut), std::runtime_error);
}

TEST(MoleculeIoTest, XyzHasAtomCountHeader) {
  const Molecule mol = make_water_box({12, 12, 12}, 3);
  std::stringstream ss;
  write_xyz(mol, ss, "test box");
  int n = 0;
  std::string comment;
  ss >> n;
  std::getline(ss, comment);  // rest of first line
  std::getline(ss, comment);
  EXPECT_EQ(n, mol.atom_count());
  EXPECT_EQ(comment, "test box");
  std::string elem;
  double x, y, z;
  ss >> elem >> x >> y >> z;
  EXPECT_EQ(elem, "O");
}

}  // namespace
}  // namespace scalemd
