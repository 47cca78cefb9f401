#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "core/compute_plan.hpp"
#include "core/decomposition.hpp"
#include "ff/bonded.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "topo/exclusions.hpp"

namespace scalemd {

/// One patch as a compute object reads it: the patch's global atom ids and
/// positions, and the force buffer the compute accumulates into.
struct PatchView {
  std::span<const int> atoms;
  std::span<const Vec3> pos;
  std::span<Vec3> frc;
};

/// Evaluates compute object `c` once at the current coordinates. This is the
/// one definition of a compute's work: WorkCache counts through it and the
/// runtime's compute tasks run it, so the work the load balancer measures
/// is the work the object does.
///
/// - Self/pair: `patch(k)` returns the PatchView of `c.patches[k]`. The
///   compute evaluates the outer rows of patches[0] from `frac_begin` to
///   `frac_end` of its atom count, each rounded to the nearest row, against
///   patches[0] itself or patches[1].
/// - Bonded: `pos(atom)` and `frc(atom)` return the position and the force
///   slot of a global atom id, for every term in `c.terms`.
///
/// `tiled` selects the non-bonded kernel: null runs the scalar reference,
/// otherwise the tiled kernel with that workspace (same counters, forces to
/// summation-order rounding). Forces accumulate, counters add into `w`; the
/// return value is the compute's energy. The accessors are template
/// parameters so the runtime's hot path inlines them.
template <class PatchOf, class PosOf, class FrcOf>
EnergyTerms evaluate_compute(const ComputeDesc& c, const Molecule& mol,
                             const NonbondedContext& nb, TiledWorkspace* tiled,
                             PatchOf&& patch, PosOf&& pos, FrcOf&& frc,
                             WorkCounters& w) {
  EnergyTerms e;
  switch (c.kind) {
    case ComputeKind::kSelf:
    case ComputeKind::kPair: {
      const PatchView a = patch(0);
      const std::size_t n = a.atoms.size();
      const auto b = static_cast<std::size_t>(std::lround(c.frac_begin * n));
      const auto en = static_cast<std::size_t>(std::lround(c.frac_end * n));
      if (c.kind == ComputeKind::kSelf) {
        return tiled != nullptr
                   ? nonbonded_self_range_tiled(nb, a.atoms, a.pos, a.frc, b, en, w,
                                                *tiled)
                   : nonbonded_self_range(nb, a.atoms, a.pos, a.frc, b, en, w);
      }
      const PatchView o = patch(1);
      return tiled != nullptr
                 ? nonbonded_ab_range_tiled(nb, a.atoms, a.pos, a.frc, o.atoms, o.pos,
                                            o.frc, b, en, w, *tiled)
                 : nonbonded_ab_range(nb, a.atoms, a.pos, a.frc, o.atoms, o.pos,
                                      o.frc, b, en, w);
    }
    case ComputeKind::kBonds:
      for (int t : c.terms) {
        const Bond& term = mol.bonds()[static_cast<std::size_t>(t)];
        e.bond += bond_energy_force(pos(term.a), pos(term.b),
                                    mol.params.bond(term.param), frc(term.a),
                                    frc(term.b));
      }
      break;
    case ComputeKind::kAngles:
      for (int t : c.terms) {
        const Angle& term = mol.angles()[static_cast<std::size_t>(t)];
        e.angle += angle_energy_force(pos(term.a), pos(term.b), pos(term.c),
                                      mol.params.angle(term.param), frc(term.a),
                                      frc(term.b), frc(term.c));
      }
      break;
    case ComputeKind::kDihedrals:
      for (int t : c.terms) {
        const Dihedral& term = mol.dihedrals()[static_cast<std::size_t>(t)];
        e.dihedral += dihedral_energy_force(
            pos(term.a), pos(term.b), pos(term.c), pos(term.d),
            mol.params.dihedral(term.param), frc(term.a), frc(term.b), frc(term.c),
            frc(term.d));
      }
      break;
    case ComputeKind::kImpropers:
      for (int t : c.terms) {
        const Improper& term = mol.impropers()[static_cast<std::size_t>(t)];
        e.improper += improper_energy_force(
            pos(term.a), pos(term.b), pos(term.c), pos(term.d),
            mol.params.improper(term.param), frc(term.a), frc(term.b), frc(term.c),
            frc(term.d));
      }
      break;
  }
  w.bonded_terms += c.terms.size();
  return e;
}

/// Real per-compute-object work counters, obtained by running every compute
/// object's kernel once at the molecule's initial coordinates (one
/// sequential-step-equivalent of real force math, scalar kernel). The DES
/// charges task costs from these counts — the "principle of persistence"
/// made literal: object loads measured once persist across the simulated
/// steps. Shared by every ParallelSim over the same workload, so a
/// 12-point processor sweep pays for the kernels only once.
class WorkCache {
 public:
  WorkCache(const Molecule& mol, const Decomposition& decomp,
            const ComputePlan& plan, const NonbondedOptions& nb);

  const WorkCounters& per_compute(std::size_t i) const { return work_[i]; }
  const std::vector<WorkCounters>& all() const { return work_; }

  /// Sum over all computes plus one integration pass.
  WorkCounters total() const;

  /// Total potential energy at the initial coordinates (a free by-product,
  /// used by tests to cross-check against the sequential engine).
  const EnergyTerms& energy() const { return energy_; }

 private:
  std::vector<WorkCounters> work_;
  WorkCounters total_;
  EnergyTerms energy_;
};

/// Virtual-seconds cost of a task that performed `w` under machine `m`.
double work_cost(const WorkCounters& w, const MachineModel& m);

}  // namespace scalemd
