#pragma once

// Runtime object state and runtime messages of ParallelSim, shared by the
// translation units that implement it (parallel_sim.cpp: dataflow, PME, LB,
// migration; sim_state.cpp: the state codec and the process-backend wire
// plumbing).

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

// ---------------------------------------------------------------------------
// Runtime messages that can cross a worker
// ---------------------------------------------------------------------------
//
// Each message kind is one struct, one field list (io_msg) and one handler
// (recv); the reduction partial (ReductionMsg) is the Reducer's. carry()
// builds the task for a send: it runs recv either way, and only when the
// destination lies in another worker does it encode the struct through
// io_msg. The receiving worker decodes the same io_msg, which validates
// every id and length, and runs the same recv. Coordinates, forces and PME
// atoms read patch state the receiver shares in-process, so their structs
// hold only ids; on the wire their field lists carry that state itself,
// from the sender's live patch or proxy into the receiver's copy, which
// the receiving worker only reads once the sender has moved on (the
// dataflow's per-step barriers).

/// A patch's coordinates for one of its proxies. Wire: patch id, then the
/// patch's step and positions.
struct ParallelSim::CoordsMsg {
  int patch = 0;
};

/// A proxy's force contribution to its home patch. Wire: patch and proxy
/// ids, then every scratch slot of the proxy, in slot order.
struct ParallelSim::ForcesMsg {
  int patch = 0;
  int proxy = 0;
};

/// A patch's positions deposited on a PME slab. Wire: slab, patch and step,
/// then the patch's positions.
struct ParallelSim::PmeAtomsMsg {
  int slab = 0;
  int patch = 0;
  int step = 0;
};

/// A transpose block from slab `src` to slab `dst` (forward: planes to
/// columns; backward: columns back to planes). Wire: dst, src, the block.
template <bool kForward>
struct ParallelSim::PmeBlockMsg {
  int dst = 0;
  int src = 0;
  std::vector<double> block;
};

/// One slab's PME force share for a patch. Wire: patch, slab, the forces.
struct ParallelSim::PmeForceMsg {
  int patch = 0;
  int slab = 0;
  std::vector<Vec3> frc;
};

template <class Io>
void ParallelSim::io_msg(Io& io, CoordsMsg& m) {
  PatchRt& pr = patches_[io.index(m.patch, patches_.size())];
  const int step = io.field(pr.step);
  io.check(step >= 0 && step <= cycle_target_, StateError::kRoundOutOfRange);
  io.array(pr.pos, pr.atoms.size());
}

template <class Io>
void ParallelSim::io_msg(Io& io, ForcesMsg& m) {
  const std::size_t natoms = patches_[io.index(m.patch, patches_.size())].atoms.size();
  ProxyRt& proxy = proxies_[io.index(m.proxy, proxies_.size())];
  io.check(proxy.patch == m.patch, StateError::kIndexOutOfRange);
  for (std::vector<Vec3>& slot : proxy.scratch) io.array(slot, natoms);
}

template <class Io>
void ParallelSim::io_msg(Io& io, PmeAtomsMsg& m) {
  io.index(m.slab, pme_slabs_.size());
  PatchRt& pr = patches_[io.index(m.patch, patches_.size())];
  const int step = io.field(m.step);
  io.check(step >= 0 && step <= cycle_target_, StateError::kRoundOutOfRange);
  io.array(pr.pos, pr.atoms.size());
}

template <class Io, bool kForward>
void ParallelSim::io_msg(Io& io, PmeBlockMsg<kForward>& m) {
  const auto dst = static_cast<int>(io.index(m.dst, pme_slabs_.size()));
  const auto src = static_cast<int>(io.index(m.src, pme_slabs_.size()));
  io.array(m.block, kForward ? pme_plan_->block_doubles(src, dst)
                             : pme_plan_->block_doubles(dst, src));
}

template <class Io>
void ParallelSim::io_msg(Io& io, PmeForceMsg& m) {
  const std::size_t natoms = patches_[io.index(m.patch, patches_.size())].atoms.size();
  io.index(m.slab, pme_slabs_.size());
  io.array(m.frc, natoms);
}

template <class Msg>
TaskFn ParallelSim::deliver(Msg m) {
  return [this, m = std::move(m)](ExecContext& c) mutable { recv(c, m); };
}

template <class Msg>
TaskMsg ParallelSim::carry(ExecContext& ctx, int dest, EntryId entry, Msg m) {
  TaskMsg msg;
  msg.entry = entry;
  if (ctx.crosses_worker(dest)) {
    msg.wire = encode_fields([&](StateWriter& w) { io_msg(w, m); });
  }
  msg.fn = deliver(std::move(m));
  return msg;
}

}  // namespace scalemd
