// The state codec and the process-backend wire plumbing of ParallelSim.
//
// One visitor, io_state, names every checkpointed field once and in wire
// order. StateWriter drives it over wire::Encoder for checkpoints and
// export_state; StateReader drives it over wire::Decoder for restore and
// import_state, validating the whole blob before it applies anything. The
// worker state frame (io_worker_state) uses the same primitives without
// indices. EXPERIMENTS.md "Wire format" documents both frames.

#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include <fcntl.h>
#include <unistd.h>

#include "core/parallel_sim.hpp"
#include "core/parallel_sim_rt.hpp"
#include "rts/wire.hpp"

namespace scalemd {

const char* state_error_name(StateError e) {
  switch (e) {
    case StateError::kTruncated:
      return "truncated";
    case StateError::kTrailingBytes:
      return "trailing-bytes";
    case StateError::kBadInt:
      return "bad-int";
    case StateError::kCountMismatch:
      return "count-mismatch";
    case StateError::kPeOutOfRange:
      return "pe-out-of-range";
    case StateError::kDepOutOfRange:
      return "dep-out-of-range";
    case StateError::kAtomLocMismatch:
      return "atom-loc-mismatch";
  }
  return "unknown";
}

namespace {

[[noreturn]] void wire_state_error(const char* what) {
  std::fprintf(stderr, "[scalemd] process wire: %s\n", what);
  std::abort();
}

/// Wire bytes of one value of each list element type.
template <class T>
constexpr std::size_t kWireSize = 8;  // int (as i64), double, u64
template <>
constexpr std::size_t kWireSize<Vec3> = 3 * 8;
template <>
constexpr std::size_t kWireSize<EnergyTerms> = 6 * 8;
template <>
constexpr std::size_t kWireSize<std::pair<int, int>> = 2 * 8;

// Values as wire primitives (f64, i32 as i64, u64, flag as u8), one
// decomposition for both directions.
template <class Io>
void io_value(Io& io, double& v) { io.f64(v); }
template <class Io>
void io_value(Io& io, int& v) { io.i32(v); }
template <class Io>
void io_value(Io& io, std::uint64_t& v) { io.u64(v); }
template <class Io>
void io_value(Io& io, Vec3& v) {
  io.f64(v.x);
  io.f64(v.y);
  io.f64(v.z);
}
template <class Io>
void io_value(Io& io, EnergyTerms& t) {
  for (double* x : {&t.lj, &t.elec, &t.bond, &t.angle, &t.dihedral, &t.improper}) {
    io.f64(*x);
  }
}
template <class Io>
void io_value(Io& io, std::pair<int, int>& p) {
  io.i32(p.first);
  io.i32(p.second);
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

/// Encodes the fields a state visitor names. Accessors return the live
/// value, so a visitor reads counts and ids the same way in both directions.
class StateWriter {
 public:
  static constexpr bool kReading = false;

  explicit StateWriter(wire::Encoder& e) : e_(e) {}

  template <class T>
  const T& field(T& v) {
    io_value(*this, v);
    return v;
  }
  /// A count-prefixed list. A reader requires the count to equal `expect`
  /// when one is given.
  template <class T>
  const std::vector<T>& list(std::vector<T>& v,
                             std::optional<std::size_t> /*expect*/ = {}) {
    e_.u64(v.size());
    return array(v, v.size());
  }
  /// `n` values with no count on the wire: both sides know the length.
  template <class T>
  const std::vector<T>& array(std::vector<T>& v, std::size_t n) {
    assert(v.size() == n);
    (void)n;
    for (T& x : v) io_value(*this, x);
    return v;
  }
  /// A count both sides know, on the wire so a reader can check it.
  void count(std::size_t n) { e_.u64(n); }
  void check(bool /*ok*/, StateError /*e*/) {}

  void f64(double v) { e_.f64(v); }
  void i32(int v) { e_.i64(v); }
  void u64(std::uint64_t v) { e_.u64(v); }
  void flag(bool v) { e_.u8(v ? 1 : 0); }

 private:
  wire::Encoder& e_;
};

/// Decodes the fields a state visitor names; any defect throws one
/// StateDecodeError. Staged (checkpoints, import_state): decoded values are
/// held back and finish() moves them into the live fields only after the
/// last field decoded and every check passed, so a rejected blob changes
/// nothing. Unstaged (worker frames): values land in the live fields as
/// they decode. Accessors return the decoded value; visitors must read
/// counts and ids through them, since staging leaves the live field stale.
class StateReader {
 public:
  static constexpr bool kReading = true;

  StateReader(const std::vector<std::uint8_t>& blob, bool staged)
      : d_(blob), staged_(staged) {}

  template <class T>
  const T& field(T& live) {
    T& v = target(live);
    io_value(*this, v);
    return v;
  }
  template <class T>
  const std::vector<T>& list(std::vector<T>& live,
                             std::optional<std::size_t> expect = {}) {
    std::uint64_t n = 0;
    check(d_.count(n, kWireSize<T>), StateError::kTruncated);
    check(!expect || n == *expect, StateError::kCountMismatch);
    return array(live, static_cast<std::size_t>(n));
  }
  template <class T>
  const std::vector<T>& array(std::vector<T>& live, std::size_t n) {
    check(d_.remaining() / kWireSize<T> >= n, StateError::kTruncated);
    std::vector<T>& v = target(live);
    v.resize(n);
    for (T& x : v) io_value(*this, x);
    return v;
  }
  void count(std::size_t n) {
    std::uint64_t got = 0;
    u64(got);
    check(got == n, StateError::kCountMismatch);
  }
  void check(bool ok, StateError e) {
    if (!ok) throw StateDecodeError(e);
  }
  /// Requires the blob consumed exactly, then applies the staged values.
  void finish() {
    check(d_.done(), StateError::kTrailingBytes);
    for (const auto& s : staged_values_) s->apply();
  }

  void f64(double& v) { check(d_.f64(v), StateError::kTruncated); }
  void u64(std::uint64_t& v) { check(d_.u64(v), StateError::kTruncated); }
  void i32(int& v) {
    std::int64_t x = 0;
    check(d_.i64(x), StateError::kTruncated);
    check(x >= INT_MIN && x <= INT_MAX, StateError::kBadInt);
    v = static_cast<int>(x);
  }
  void flag(bool& v) {
    std::uint8_t b = 0;
    check(d_.u8(b), StateError::kTruncated);
    check(b <= 1, StateError::kBadInt);
    v = b != 0;
  }

 private:
  struct Staged {
    virtual ~Staged() = default;
    virtual void apply() = 0;
  };
  template <class T>
  struct StagedValue final : Staged {
    explicit StagedValue(T& l) : live(l) {}
    void apply() override { live = std::move(value); }
    T& live;
    T value{};
  };

  template <class T>
  T& target(T& live) {
    if (!staged_) return live;
    auto s = std::make_unique<StagedValue<T>>(live);
    T& v = s->value;
    staged_values_.push_back(std::move(s));
    return v;
  }

  wire::Decoder d_;
  bool staged_;
  std::vector<std::unique_ptr<Staged>> staged_values_;
};

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

void append_reals(std::vector<double>& reals, const std::vector<Vec3>& v) {
  reals.reserve(reals.size() + 3 * v.size());
  for (const Vec3& x : v) {
    reals.push_back(x.x);
    reals.push_back(x.y);
    reals.push_back(x.z);
  }
}

std::size_t read_reals(const std::vector<double>& reals, std::size_t off,
                       std::vector<Vec3>& v) {
  for (Vec3& x : v) {
    x = {reals[off], reals[off + 1], reals[off + 2]};
    off += 3;
  }
  return off;
}

void ParallelSim::setup_process_wire() {
  // Coordinates crossing a worker boundary: apply the shipped positions and
  // step index to the receiving worker's patch replica, then run the normal
  // receive path. ints = [patch, step], reals = positions.
  proc_->register_decoder(e_coords_, [this](const WirePayload& w) -> TaskFn {
    return [this, w](ExecContext& c) {
      if (w.ints.size() != 2) wire_state_error("bad coords header");
      const int patch = static_cast<int>(w.ints[0]);
      if (patch < 0 || static_cast<std::size_t>(patch) >= patches_.size()) {
        wire_state_error("coords patch out of range");
      }
      PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
      if (w.reals.size() != pr.pos.size() * 3) {
        wire_state_error("coords payload size mismatch");
      }
      pr.step = static_cast<int>(w.ints[1]);
      read_reals(w.reals, 0, pr.pos);
      c.charge_pack(
          static_cast<double>(msg_bytes(pr.pos.size(), opts_.bytes_per_atom_coord)) *
          c.machine().unpack_byte_cost);
      on_recv_coords(c, patch, c.pe());
    };
  });

  // Force contributions arriving at the home worker: copy every scratch
  // slot of the contributing proxy into the local replica, then signal the
  // contribution. ints = [patch, proxy index], reals = slots flattened.
  proc_->register_decoder(e_forces_, [this](const WirePayload& w) -> TaskFn {
    return [this, w](ExecContext& c) {
      if (w.ints.size() != 2) wire_state_error("bad forces header");
      const int patch = static_cast<int>(w.ints[0]);
      const int pxy = static_cast<int>(w.ints[1]);
      if (pxy < 0 || static_cast<std::size_t>(pxy) >= proxies_.size() ||
          proxies_[static_cast<std::size_t>(pxy)].patch != patch) {
        wire_state_error("forces proxy out of range");
      }
      ProxyRt& proxy = proxies_[static_cast<std::size_t>(pxy)];
      std::size_t need = 0;
      for (const auto& s : proxy.scratch) need += s.size() * 3;
      if (w.reals.size() != need) {
        wire_state_error("forces payload size mismatch");
      }
      std::size_t off = 0;
      for (auto& s : proxy.scratch) off = read_reals(w.reals, off, s);
      const std::size_t bytes =
          msg_bytes(patches_[static_cast<std::size_t>(patch)].pos.size(),
                    opts_.bytes_per_atom_force);
      c.charge_pack(static_cast<double>(bytes) * c.machine().unpack_byte_cost);
      on_contribution(c, patch, pxy);
    };
  });

  // Reduction partial sums climbing the tree. ints = [parent rank, round,
  // forwarded, n, ids...], reals = the n values (raw IEEE bits).
  proc_->register_decoder(e_reduction_, [this](const WirePayload& w) -> TaskFn {
    return [this, w](ExecContext& c) {
      if (w.ints.size() < 4) wire_state_error("bad reduction header");
      const int parent_rank = static_cast<int>(w.ints[0]);
      const int round = static_cast<int>(w.ints[1]);
      const int forwarded = static_cast<int>(w.ints[2]);
      const std::size_t n = static_cast<std::size_t>(w.ints[3]);
      if (w.ints.size() != 4 + n || w.reals.size() != n) {
        wire_state_error("reduction payload size mismatch");
      }
      std::vector<std::pair<int, double>> parts;
      parts.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        parts.push_back({static_cast<int>(w.ints[4 + i]), w.reals[i]});
      }
      c.charge(1e-6);  // combine cost (parity with the in-process closure)
      reducer_->deliver(c, parent_rank, round, std::move(parts), forwarded);
    };
  });

  // PME frames (full-electrostatics runs only; the entries are registered
  // before this point whenever pme_plan_ exists, so registering the
  // decoders unconditionally on pme_plan_ is safe).
  if (pme_plan_ != nullptr) {
    // Atom deposit crossing a worker boundary: the slab's worker cannot
    // read the patch replica, so positions ride the wire and land in the
    // slab's own per-patch buffer (never the replica — that belongs to the
    // coordinate path). ints = [slab, patch, step], reals = positions.
    proc_->register_decoder(e_pme_atoms_, [this](const WirePayload& w) -> TaskFn {
      return [this, w](ExecContext& c) {
        if (w.ints.size() != 3) wire_state_error("bad pme atoms header");
        const int slab = static_cast<int>(w.ints[0]);
        const int patch = static_cast<int>(w.ints[1]);
        if (slab < 0 || static_cast<std::size_t>(slab) >= pme_slabs_.size() ||
            patch < 0 || static_cast<std::size_t>(patch) >= patches_.size()) {
          wire_state_error("pme atoms target out of range");
        }
        if (w.reals.size() !=
            patches_[static_cast<std::size_t>(patch)].atoms.size() * 3) {
          wire_state_error("pme atoms payload size mismatch");
        }
        c.charge_pack(static_cast<double>(msg_bytes(
                          patches_[static_cast<std::size_t>(patch)].atoms.size(),
                          opts_.bytes_per_atom_coord)) *
                      c.machine().unpack_byte_cost);
        on_pme_atoms(c, slab, patch, static_cast<int>(w.ints[2]), &w.reals);
      };
    });

    // Transpose blocks. ints = [dst slab, src slab], reals = the block.
    const auto transpose_decoder = [this](bool forward) {
      return [this, forward](const WirePayload& w) -> TaskFn {
        return [this, forward, w](ExecContext& c) {
          if (w.ints.size() != 2) wire_state_error("bad pme transpose header");
          const int dst = static_cast<int>(w.ints[0]);
          const int src = static_cast<int>(w.ints[1]);
          if (dst < 0 || static_cast<std::size_t>(dst) >= pme_slabs_.size() ||
              src < 0 || static_cast<std::size_t>(src) >= pme_slabs_.size()) {
            wire_state_error("pme transpose slab out of range");
          }
          const std::size_t doubles = forward
                                          ? pme_plan_->block_doubles(src, dst)
                                          : pme_plan_->block_doubles(dst, src);
          if (w.reals.size() != doubles) {
            wire_state_error("pme transpose block size mismatch");
          }
          c.charge_pack(static_cast<double>(msg_bytes(doubles, sizeof(double))) *
                        c.machine().unpack_byte_cost);
          if (forward) {
            on_pme_fwd(c, dst, src, w.reals);
          } else {
            on_pme_bwd(c, dst, src, w.reals);
          }
        };
      };
    };
    proc_->register_decoder(e_pme_tr_fwd_, transpose_decoder(true));
    proc_->register_decoder(e_pme_tr_bwd_, transpose_decoder(false));

    // Force shares back to the patch home. ints = [patch, slab, step],
    // reals = the per-atom force block.
    proc_->register_decoder(e_pme_force_, [this](const WirePayload& w) -> TaskFn {
      return [this, w](ExecContext& c) {
        if (w.ints.size() != 3) wire_state_error("bad pme force header");
        const int patch = static_cast<int>(w.ints[0]);
        const int slab = static_cast<int>(w.ints[1]);
        if (patch < 0 || static_cast<std::size_t>(patch) >= patches_.size() ||
            slab < 0 || static_cast<std::size_t>(slab) >= pme_slabs_.size()) {
          wire_state_error("pme force target out of range");
        }
        const std::size_t natoms =
            patches_[static_cast<std::size_t>(patch)].atoms.size();
        if (w.reals.size() != natoms * 3) {
          wire_state_error("pme force payload size mismatch");
        }
        std::vector<Vec3> frc(natoms);
        read_reals(w.reals, 0, frc);
        c.charge_pack(
            static_cast<double>(msg_bytes(natoms, opts_.bytes_per_atom_force)) *
            c.machine().unpack_byte_cost);
        on_pme_force(c, patch, slab, std::move(frc));
      };
    });
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
  try {
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
  } catch (const StateDecodeError& e) {
    std::fprintf(stderr, "[scalemd] process wire: worker %d state %s\n", worker,
                 e.what());
    std::abort();
  }
}

}  // namespace scalemd
