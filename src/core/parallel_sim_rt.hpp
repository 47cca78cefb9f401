#pragma once

// Runtime object state of ParallelSim, shared by the translation units that
// implement it (parallel_sim.cpp: dataflow, PME, LB, migration;
// sim_state.cpp: the state codec and the process-backend wire plumbing).

#include <complex>
#include <vector>

#include "core/parallel_sim.hpp"

namespace scalemd {

/// Home-patch runtime state: the atoms it owns plus step bookkeeping.
struct ParallelSim::PatchRt {
  std::vector<int> atoms;  ///< global atom ids
  std::vector<Vec3> pos, vel, frc;
  std::vector<double> mass;
  int step = 0;               ///< next advance index within the cycle
  int contrib_expected = 0;   ///< PEs (incl. home) that send force contributions
  int contrib_received = 0;
  /// Proxy ids in the order their contributions arrived this round. Only
  /// recorded under the injected arrival-order defect (see ParallelOptions::
  /// debug_fold_arrival_order); empty otherwise.
  std::vector<int> arrival;
  /// Full-electrostatics runs: per-slab PME force shares for the current
  /// force round, assigned whole by on_pme_force and folded after the
  /// compute contributions in slab order.
  std::vector<std::vector<Vec3>> pme_frc;

  int natoms() const { return static_cast<int>(atoms.size()); }
};

/// Proxy-patch state for one (patch, pe): the compute objects on that PE
/// that read the patch, plus one private force buffer (scratch slot) per
/// compute. The home patch folds every slot of every proxy in global
/// compute-id order (patch_contribs_) once all contributions are in, so
/// the sum is independent of the order the computes actually executed in —
/// message faults, retries, placement changes and real thread timing
/// reorder execution but not the physics.
struct ParallelSim::ProxyRt {
  int patch = 0;
  int pe = 0;
  std::vector<int> computes;
  int pending = 0;  ///< computes not yet finished this step
  std::vector<std::vector<Vec3>> scratch;  ///< per-compute, parallel to `computes`
};

/// Per-compute runtime state.
struct ParallelSim::ComputeRt {
  std::vector<int> deps;  ///< current patch dependencies (bonded deps can
                          ///< change after atom migration)
  int deps_pending = 0;
  WorkCounters work;      ///< live-measured work (numeric mode)
};

/// Runtime state of one parallel-PME slab object. Every buffer is per-round
/// transient: the PME pipeline is a per-step barrier (all patches deposit
/// atoms before any slab spreads; all patches wait on every slab's force
/// share before advancing), so by the time any step-(s+1) message can reach
/// a slab its step-s state has been fully consumed — one set of buffers
/// suffices, with no per-step keying.
struct ParallelSim::PmeSlabRt {
  int step = 0;             ///< local step currently assembling
  int atoms_pending = 0;    ///< patch deposits yet to arrive this round
  int fwd_pending = 0;      ///< forward transpose blocks yet to arrive
  int bwd_pending = 0;      ///< backward transpose blocks yet to arrive
  double recip_energy = 0.0;  ///< phase-2 reciprocal partial of this round
  // Numeric mode only: per-patch position deposits, the assembled
  // global-order snapshot, and the two grid chunks (plane / column roles).
  std::vector<std::vector<Vec3>> patch_pos;
  std::vector<Vec3> all_pos;
  std::vector<std::complex<double>> planes, columns;
};

/// Vec3 <-> WirePayload::reals, flattened x, y, z per element (defined in
/// sim_state.cpp with the decoders that use the second).
void append_reals(std::vector<double>& reals, const std::vector<Vec3>& v);
/// Fills the already-sized `v` from reals[off...]; returns the offset just
/// past it.
std::size_t read_reals(const std::vector<double>& reals, std::size_t off,
                       std::vector<Vec3>& v);

}  // namespace scalemd
