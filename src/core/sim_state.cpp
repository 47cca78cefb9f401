// The state codec and the process-backend wire plumbing of ParallelSim.
//
// One visitor, io_state, names every checkpointed field once and in wire
// order. StateWriter drives it over wire::Encoder for checkpoints and
// export_state; StateReader drives it over wire::Decoder for restore and
// import_state, validating the whole blob before it applies anything. The
// worker state frame (io_worker_state) uses the same primitives without
// indices, and the runtime messages register their field lists
// (parallel_sim_rt.hpp) as the process backend's decoders. EXPERIMENTS.md
// "Wire format" documents every frame.

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include <fcntl.h>
#include <unistd.h>

#include "core/parallel_sim.hpp"
#include "core/parallel_sim_rt.hpp"
#include "rts/codec.hpp"
#include "rts/wire.hpp"

namespace scalemd {

template <>
inline constexpr std::size_t kWireSize<EnergyTerms> = 6 * 8;

template <class Io>
void io_value(Io& io, EnergyTerms& t) {
  for (double* x : {&t.lj, &t.elec, &t.bond, &t.angle, &t.dihedral, &t.improper}) {
    io.f64(*x);
  }
}
template <class Io>
void io_value(Io& io, Rng& r) {
  Rng::State st = r.state();
  for (std::uint64_t& w : st.s) io.u64(w);
  io.u64(st.seed);
  io.flag(st.has_cached_normal);
  io.f64(st.cached_normal);
  if constexpr (Io::kReading) r.set_state(st);
}

namespace {

/// A patch's motion state: the part both frames carry.
template <class Io, class Patch>
void io_motion(Io& io, Patch& pr, std::size_t natoms) {
  io.array(pr.pos, natoms);
  io.array(pr.vel, natoms);
  io.array(pr.frc, natoms);
  io.field(pr.step);
}

}  // namespace

// ---------------------------------------------------------------------------
// The state visitors
// ---------------------------------------------------------------------------

template <class Io>
void ParallelSim::io_state(Io& io) {
  const int np = static_cast<int>(patches_.size());
  const auto pes_ok = [this](const std::vector<int>& pes) {
    return std::all_of(pes.begin(), pes.end(), [this](int pe) {
      return pe >= 0 && pe < opts_.num_pes;
    });
  };

  // Patches: the atom ids carry the one count per patch; the per-atom
  // arrays share it (they are empty in frozen mode).
  io.count(patches_.size());
  std::vector<const std::vector<int>*> lists;
  lists.reserve(patches_.size());
  std::size_t total = 0;
  for (PatchRt& pr : patches_) {
    const std::vector<int>& atoms = io.list(pr.atoms);
    const std::size_t n = opts_.numeric ? atoms.size() : 0;
    io.array(pr.mass, n);
    io_motion(io, pr, n);
    lists.push_back(&atoms);
    total += atoms.size();
  }
  const std::vector<std::pair<int, int>>& loc = io.list(atom_loc_, atom_loc_.size());
  if constexpr (Io::kReading) {
    // Every atom sits in exactly the slot atom_loc names: with the totals
    // equal, this makes the patch atom lists a partition of the atoms.
    const auto holds = [&](std::pair<int, int> slot, std::size_t atom) {
      const auto [p, i] = slot;
      if (p < 0 || p >= np || i < 0) return false;
      const std::vector<int>& ids = *lists[static_cast<std::size_t>(p)];
      return static_cast<std::size_t>(i) < ids.size() &&
             ids[static_cast<std::size_t>(i)] == static_cast<int>(atom);
    };
    bool ok = total == loc.size();
    for (std::size_t a = 0; ok && a < loc.size(); ++a) ok = holds(loc[a], a);
    io.check(ok, StateError::kAtomLocMismatch);
  }

  io.count(computes_.size());
  for (ComputeRt& c : computes_) {
    for (int p : io.list(c.deps)) {
      io.check(p >= 0 && p < np, StateError::kDepOutOfRange);
    }
  }
  io.check(pes_ok(io.list(patch_home_, patches_.size())), StateError::kPeOutOfRange);
  io.check(pes_ok(io.list(compute_pe_, computes_.size())), StateError::kPeOutOfRange);

  io.list(reduction_totals_);
  io.list(potential_per_step_);
  io.list(step_completion_);
  io.list(step_last_advance_);
  io.list(steps_done_counter_);
  io.field(global_steps_);
  io.field(noise_rng_);
  io.check(pes_ok(io.list(slab_pe_, slab_pe_.size())), StateError::kPeOutOfRange);
}

template <class Io>
void ParallelSim::io_worker_state(Io& io, int worker) {
  const auto mine = [this, worker](int pe) { return proc_->owner_of(pe) == worker; };
  const std::size_t row = static_cast<std::size_t>(cycle_target_ + 1);

  // Owned patches: advance() mutated their motion on the home PE.
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    if (mine(patch_home_[p])) io_motion(io, patches_[p], patches_[p].pos.size());
  }
  // Potential-energy rows of the computes this worker ran.
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (!mine(compute_pe_[i])) continue;
    for (std::size_t s = 0; s < row; ++s) io.field(potential_scratch_[i * row + s]);
  }
  // PME energy rows of the slabs homed here (their forces already reached
  // the patch workers over the wire).
  for (std::size_t sl = 0; sl < slab_pe_.size(); ++sl) {
    if (!mine(slab_pe_[sl])) continue;
    for (std::size_t s = 0; s < row; ++s) io.field(pme_scratch_[sl * row + s]);
  }
  // Reduction totals land at the tree root, so only its worker reports
  // them: the frame's one variable-length part.
  if (mine(reducer_->root_pe())) {
    const std::size_t base = static_cast<std::size_t>(step_base_);
    std::uint64_t have = reduction_totals_.size() > base
                             ? std::min(reduction_totals_.size() - base, row)
                             : 0;
    const std::uint64_t n = io.field(have);
    io.check(n <= row, StateError::kCountMismatch);
    if (reduction_totals_.size() < base + n) reduction_totals_.resize(base + n, 0.0);
    for (std::size_t i = 0; i < n; ++i) io.field(reduction_totals_[base + i]);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restart
// ---------------------------------------------------------------------------

double ParallelSim::decode_state(const std::vector<std::uint8_t>& blob) {
  StateReader r(blob, /*staged=*/true);
  double taken_at = 0.0;
  r.field(taken_at);
  io_state(r);
  r.finish();
  return taken_at;
}

void ParallelSim::take_checkpoint() {
  assert(exec_->idle());
  const double taken_at = exec_->time();
  std::vector<std::uint8_t> blob = export_state();
  cycles_since_ckpt_.clear();
  ++checkpoints_taken_;
  if (proc_ != nullptr) {
    // Process backend: the checkpoint goes to disk through the wire layer
    // (one kCheckpoint frame) and nothing stays in memory — restore must
    // survive on what actually hit the file, exactly like a recovery after
    // a real crash would.
    const int fd = ::open(opts_.checkpoint_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || !wire::write_frame(fd, wire::FrameType::kCheckpoint, blob)) {
      std::fprintf(stderr, "[scalemd] cannot write checkpoint to %s\n",
                   opts_.checkpoint_path.c_str());
      std::abort();
    }
    ::close(fd);
    ckpt_on_disk_ = true;
    sinks_.on_fault({FaultKind::kCheckpoint, -1, -1, taken_at, 0.0});
    return;
  }
  assert(des_ != nullptr && "checkpointing requires the DES or process backend");
  ckpt_ = std::move(blob);
  des_->record_fault({FaultKind::kCheckpoint, -1, -1, taken_at, 0.0});

  // Model the coordinated snapshot's cost: each live PE spends time
  // serializing its resident patch state (this is the overhead the audit
  // reports for fault-free runs with checkpointing on).
  std::vector<double> bytes_on_pe(static_cast<std::size_t>(opts_.num_pes), 0.0);
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    bytes_on_pe[static_cast<std::size_t>(patch_home_[p])] +=
        96.0 * static_cast<double>(patches_[p].natoms());
  }
  const double t0 = des_->time();
  for (int pe = 0; pe < opts_.num_pes; ++pe) {
    if (des_->pe_failed(pe)) continue;
    const double cost =
        bytes_on_pe[static_cast<std::size_t>(pe)] * opts_.machine.pack_byte_cost;
    TaskMsg msg;
    msg.entry = e_checkpoint_;
    msg.fn = [cost](ExecContext& cc) { cc.charge(cost); };
    des_->inject(pe, std::move(msg), t0);
  }
  des_->run();
  assert(des_->idle());
}

void ParallelSim::restore_checkpoint() {
  assert(have_checkpoint());
  std::vector<std::uint8_t> disk;
  if (proc_ != nullptr) {
    const int fd = ::open(opts_.checkpoint_path.c_str(), O_RDONLY);
    wire::FrameType type{};
    const wire::WireError err =
        fd < 0 ? wire::WireError::kIo : wire::read_frame(fd, type, disk);
    if (fd >= 0) ::close(fd);
    if (err != wire::WireError::kOk || type != wire::FrameType::kCheckpoint) {
      std::fprintf(stderr, "[scalemd] cannot restore checkpoint from %s: %s\n",
                   opts_.checkpoint_path.c_str(), wire::wire_error_name(err));
      std::abort();
    }
  }
  const double now = exec_->time();
  double taken_at = 0.0;
  try {
    taken_at = decode_state(proc_ != nullptr ? disk : ckpt_);
  } catch (const StateDecodeError& e) {
    // A checkpoint this sim wrote itself no longer fits it: restoring
    // anyway would corrupt the run silently.
    std::fprintf(stderr, "[scalemd] cannot restore checkpoint: state %s\n", e.what());
    std::abort();
  }
  const double lost = now - taken_at;
  restart_lost_time_ += lost;
  ++restarts_;
  adopt_restored_state();
  // The clock is NOT rewound: the lost interval is the real cost of redoing
  // work, and is what restart_latency() reports.
  sinks_.on_fault({FaultKind::kRestart, -1, -1, now, lost});
}

void ParallelSim::adopt_restored_state() {
  // Un-acked pre-restart sends must not be resurrected by stale retries;
  // replayed sends get fresh sequence ids so dedup cannot misfire either.
  if (reliable_) reliable_->clear_pending();

  const std::vector<int> dead = exec_->failed_pes();
  if (!dead.empty()) {
    evacuate_failed_pes(dead);
  } else {
    // No failure — the stall came from unrecovered message loss. Replaying
    // from the snapshot redraws the per-message fault decisions, so a
    // retry has an independent chance of a clean pass.
    rebuild_reducer();
    rebuild_dataflow();
  }
}

std::vector<std::uint8_t> ParallelSim::export_state() const {
  assert(exec_->idle() && "export_state needs a quiesced machine");
  wire::Encoder e;
  e.f64(exec_->time());  // snapshot time
  StateWriter w(e);
  // The writer only reads the fields; io_state is non-const because the
  // same visitor also drives the reader.
  const_cast<ParallelSim*>(this)->io_state(w);
  return e.take();
}

void ParallelSim::import_state(const std::vector<std::uint8_t>& blob) {
  assert(exec_->idle() && "import_state needs a quiesced machine");
  decode_state(blob);
  adopt_restored_state();
}

// ---------------------------------------------------------------------------
// Process-backend wire plumbing
// ---------------------------------------------------------------------------

template <class Msg>
void ParallelSim::register_msg(EntryId entry) {
  proc_->register_decoder(entry, [this](StateReader& in, StateWriter* echo) {
    Msg m;
    io_msg(in, m);
    if (echo != nullptr) io_msg(*echo, m);
    return deliver(std::move(m));
  });
}

void ParallelSim::setup_process_wire() {
  // The messages that can cross a worker. The PME entries exist whenever
  // pme_plan_ does.
  register_msg<CoordsMsg>(e_coords_);
  register_msg<ForcesMsg>(e_forces_);
  register_msg<ReductionMsg>(e_reduction_);
  if (pme_plan_ != nullptr) {
    register_msg<PmeAtomsMsg>(e_pme_atoms_);
    register_msg<PmeBlockMsg<true>>(e_pme_tr_fwd_);
    register_msg<PmeBlockMsg<false>>(e_pme_tr_bwd_);
    register_msg<PmeForceMsg>(e_pme_force_);
  }
  proc_->set_state_hooks(
      [this](int worker, int /*workers*/) { return flush_worker_state(worker); },
      [this](int worker, const std::vector<std::uint8_t>& blob) {
        merge_worker_state(worker, blob);
      });
}

std::vector<std::uint8_t> ParallelSim::flush_worker_state(int worker) const {
  wire::Encoder e;
  StateWriter w(e);
  const_cast<ParallelSim*>(this)->io_worker_state(w, worker);  // reads only
  // Per-step progress over this cycle's range: the counter delta this
  // worker contributed (the range was zeroed before the fork, so the local
  // value IS the delta) and the latest advance time it saw.
  for (int s = 0; s <= cycle_target_; ++s) {
    const std::size_t g = static_cast<std::size_t>(step_base_ + s);
    e.i64(steps_done_counter_[g]);
    e.f64(step_last_advance_[g]);
  }
  return e.take();
}

void ParallelSim::merge_worker_state(int worker, const std::vector<std::uint8_t>& blob) {
  // A bad frame throws StateDecodeError; the backend aborts the run on it.
  StateReader r(blob, /*staged=*/false);
  io_worker_state(r, worker);
  // The progress fold: counters add up across workers, and a step
  // completes at the latest advance any worker saw.
  for (int s = 0; s <= cycle_target_; ++s) {
    const std::size_t g = static_cast<std::size_t>(step_base_ + s);
    int delta = 0;
    double last = 0.0;
    steps_done_counter_[g] += r.field(delta);
    step_last_advance_[g] = std::max(step_last_advance_[g], r.field(last));
    if (steps_done_counter_[g] == active_patches_) {
      step_completion_[g] = step_last_advance_[g];
    }
  }
  r.finish();
}

}  // namespace scalemd
