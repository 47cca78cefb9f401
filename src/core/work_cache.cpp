#include "core/work_cache.hpp"

namespace scalemd {

WorkCache::WorkCache(const Molecule& mol, const Decomposition& decomp,
                     const ComputePlan& plan, const NonbondedOptions& nb) {
  const ExclusionTable excl = ExclusionTable::build(mol);
  std::vector<double> charges;
  std::vector<int> types;
  charges.reserve(static_cast<std::size_t>(mol.atom_count()));
  for (const Atom& a : mol.atoms()) {
    charges.push_back(a.charge);
    types.push_back(a.lj_type);
  }
  const NonbondedContext ctx(mol.params, excl, charges, types, nb);

  // Patch-local gathered coordinates; throwaway force buffers.
  const auto& patch_atoms = decomp.patch_atoms();
  std::vector<std::vector<Vec3>> ppos(patch_atoms.size());
  std::vector<std::vector<Vec3>> pfrc(patch_atoms.size());
  for (std::size_t p = 0; p < patch_atoms.size(); ++p) {
    ppos[p].reserve(patch_atoms[p].size());
    for (int a : patch_atoms[p]) {
      ppos[p].push_back(mol.positions()[static_cast<std::size_t>(a)]);
    }
    pfrc[p].assign(patch_atoms[p].size(), Vec3{});
  }
  std::vector<Vec3> gfrc(static_cast<std::size_t>(mol.atom_count()));

  const auto pos = [&](int atom) -> const Vec3& {
    return mol.positions()[static_cast<std::size_t>(atom)];
  };
  const auto frc = [&](int atom) -> Vec3& {
    return gfrc[static_cast<std::size_t>(atom)];
  };

  // Count with the workload's kernel: scalar and tiled produce the same
  // counters, so DES costs do not depend on the choice. kTiledThreads counts
  // with the single-threaded tiled kernel (one workspace, no pool).
  TiledWorkspace ws;
  TiledWorkspace* tiled = nb.kernel == NonbondedKernel::kScalar ? nullptr : &ws;

  work_.reserve(plan.computes().size());
  for (const ComputeDesc& c : plan.computes()) {
    const auto patch = [&](int k) {
      const auto p = static_cast<std::size_t>(c.patches[static_cast<std::size_t>(k)]);
      return PatchView{patch_atoms[p], ppos[p], pfrc[p]};
    };
    WorkCounters w;
    energy_ += evaluate_compute(c, mol, ctx, tiled, patch, pos, frc, w);
    total_ += w;
    work_.push_back(w);
  }
  total_.atoms_integrated += static_cast<std::uint64_t>(mol.atom_count());
}

WorkCounters WorkCache::total() const { return total_; }

double work_cost(const WorkCounters& w, const MachineModel& m) {
  return static_cast<double>(w.pairs_computed) * m.pair_cost +
         static_cast<double>(w.pairs_tested - w.pairs_computed) * m.pair_test_cost +
         static_cast<double>(w.bonded_terms) * m.bonded_cost +
         static_cast<double>(w.atoms_integrated) * m.integrate_cost;
}

}  // namespace scalemd
