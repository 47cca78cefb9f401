#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/compute_plan.hpp"
#include "core/decomposition.hpp"
#include "core/work_cache.hpp"
#include "des/fault.hpp"
#include "des/simulator.hpp"
#include "ewald/pme_slab.hpp"
#include "ff/nonbonded.hpp"
#include "ff/nonbonded_tiled.hpp"
#include "lb/database.hpp"
#include "lb/problem.hpp"
#include "rts/codec.hpp"
#include "rts/process_backend.hpp"
#include "rts/reduction.hpp"
#include "rts/reliable.hpp"
#include "topo/exclusions.hpp"
#include "util/random.hpp"

namespace scalemd {

/// Which strategy drives object remapping (ablation-friendly).
enum class LbStrategyKind {
  kNone,          ///< keep the static initial placement
  kRandom,        ///< random placement (floor baseline)
  kGreedyNoComm,  ///< greedy by load only, communication-blind
  kGreedy,        ///< the paper's proxy-aware greedy
  kGreedyRefine,  ///< greedy followed by refinement (the paper's default)
  kDiffusion,     ///< distributed neighbor-diffusion strategy
};

struct LbPolicy {
  LbStrategyKind kind = LbStrategyKind::kGreedyRefine;
  double greedy_overload = 1.10;
  double refine_overload = 1.03;
};

/// A workload bundles everything about the molecular system that is
/// independent of the processor count: decomposition, compute plan and the
/// measured per-object work. Build once, sweep ParallelSim over P.
struct Workload {
  Workload(const Molecule& molecule, const MachineModel& machine,
           const NonbondedOptions& nonbonded = {},
           const ComputePlanOptions& plan_opts = {});

  const Molecule* mol;
  NonbondedOptions nonbonded;
  Decomposition decomp;
  /// Unsplit per-object costs from a probe kernel pass; drives splitting.
  MeasuredCosts measured;
  ComputePlan plan;
  WorkCache work;
};

/// Placement knobs for the parallel PME slab objects. Active only when the
/// workload's NonbondedOptions::full_elec is enabled; the grid geometry and
/// spline order come from there so the parallel path can never drift from
/// the sequential reference physics.
struct ParallelPmeOptions {
  /// Number of PME slab objects. The slab count partitions the gather, the
  /// reciprocal-energy sum and the exclusion-correction work, so it is part
  /// of the numerics contract: hold it fixed while sweeping PE counts, LB
  /// strategies and backends and trajectories stay bitwise identical.
  int slabs = 4;
  /// 0 (default): slabs start round-robin across all PEs and migrate under
  /// load balancing like any other object. > 0: slabs are pinned round-robin
  /// onto the last `dedicated_ranks` PEs and excluded from LB — the
  /// dedicated-PME-ranks ablation (see EXPERIMENTS.md).
  int dedicated_ranks = 0;
};

struct ParallelOptions {
  int num_pes = 1;
  MachineModel machine = MachineModel::asci_red();
  /// Which machine runs the message-driven runtime: the discrete-event
  /// model (kSimulated, the default) or real worker threads (kThreaded).
  /// The threaded backend requires numeric mode and excludes the DES-only
  /// layers (faults, reliable delivery, checkpointing).
  BackendKind backend = BackendKind::kSimulated;
  /// Worker threads for the threaded backend (0 = one per hardware thread,
  /// clamped to num_pes). Ignored by the simulated backend.
  int threads = 0;
  /// Process-backend knobs (worker count, heartbeat, chaos kill). Ignored
  /// by the other backends. The process backend requires numeric mode like
  /// the threaded one, but DOES support checkpoint_every: checkpoints are
  /// serialized to checkpoint_path through the wire layer, and a worker
  /// killed mid-cycle triggers a real restore-and-replay.
  ProcessOptions process;
  /// On-disk checkpoint file for the process backend.
  std::string checkpoint_path = "scalemd_checkpoint.bin";
  /// Optional precomputed initial patch placement (one home PE per patch).
  /// When set (and sized to the workload's patch count), the constructor
  /// adopts it instead of re-running RCB — the serve layer's topology cache
  /// shares one RCB result across identical-topology jobs. The vector must
  /// be what rcb_patch_map would produce for this workload and PE count;
  /// anything else still runs (placement never changes trajectories) but
  /// forfeits the paper's locality-seeded starting point.
  std::shared_ptr<const std::vector<int>> initial_patch_home;
  LbPolicy lb;
  /// Parallel PME slab placement (used when the workload enables full_elec).
  ParallelPmeOptions pme;
  /// Use the single-packing multicast of section 4.2.3.
  bool optimized_multicast = true;
  /// Execute real force math and integration (tests / short runs). When
  /// false, task costs come from the WorkCache and no numerics run.
  bool numeric = false;
  double dt_fs = 1.0;
  /// Message sizing.
  int bytes_per_atom_coord = 24;
  int bytes_per_atom_force = 24;
  int msg_header_bytes = 32;

  // --- resilience ------------------------------------------------------
  /// Chaos schedule for the simulated machine (empty = fault-free).
  FaultPlan fault;
  /// Route runtime messages through the reliable-delivery layer
  /// (dedup + ack/timeout retry). Pass-through when the plan is empty.
  bool reliable = false;
  ReliableOptions reliable_opts;
  /// Coordinated in-memory checkpoint every N run_cycle calls (0 = off).
  /// With a valid checkpoint, a cycle stalled by a PE failure triggers
  /// restore + evacuation + replay instead of a hung run.
  int checkpoint_every = 0;

  // --- defect injection (fuzzer self-test only) ------------------------
  /// HIDDEN: fold each patch's force contributions in message-ARRIVAL order
  /// instead of canonical compute-id order (simulated backend only, where
  /// arrival order is deterministic). This re-introduces — on purpose — the
  /// exact ordering bug the canonical fold exists to prevent: trajectories
  /// then depend on the message schedule, so the cross-backend and
  /// chaos-equality oracles must flag it. `scalemd-fuzz --self-test` flips
  /// this flag to prove the fuzzing harness still catches and shrinks it.
  /// Never set it anywhere else.
  bool debug_fold_arrival_order = false;
};

/// The parallel NAMD reproduction: home patches, proxy patches and compute
/// objects wired into the discrete-event machine, with measurement-based
/// load balancing. One instance = one machine configuration (P processors of
/// one MachineModel) running one workload.
class ParallelSim {
 public:
  /// Throws std::invalid_argument when the workload's non-bonded kernel is
  /// NonbondedKernel::kTiledThreads (a sequential-engine option).
  ParallelSim(const Workload& workload, const ParallelOptions& opts);
  ~ParallelSim();

  /// Runs the paper's benchmark protocol: a measurement cycle under the
  /// static initial placement, the full LB (strategy per options), a second
  /// measurement cycle, a refine-only LB, then a timed cycle. Returns
  /// steady-state seconds per step of the timed cycle.
  double run_benchmark(int measure_steps = 3, int timed_steps = 5);

  /// Runs one pipelined cycle of `steps` timesteps and quiesces. In numeric
  /// mode, atoms that left their patch cube migrate afterwards.
  void run_cycle(int steps);

  /// Applies the configured strategy (greedy and/or refine) using loads
  /// measured since the last call; models object-migration messages.
  void load_balance(bool refine_only = false);

  // --- results & instrumentation -------------------------------------
  /// The execution machine, whichever kind is active.
  ExecBackend& backend() { return *exec_; }
  const ExecBackend& backend() const { return *exec_; }

  /// The DES machine. Only valid with the simulated backend (asserts);
  /// backend-agnostic callers should use backend() instead.
  Simulator& sim() {
    assert(des_ != nullptr && "sim() requires the simulated backend");
    return *des_;
  }
  const Simulator& sim() const {
    assert(des_ != nullptr && "sim() requires the simulated backend");
    return *des_;
  }

  /// Completion time of each global step so far, in the backend's clock
  /// (virtual seconds simulated, wall-clock seconds threaded).
  const std::vector<double>& step_completion() const { return step_completion_; }

  /// step_completion()[s], or 0.0 when `s` is out of range — never UB.
  double step_completion_at(int s) const;

  /// Steady-state s/step over the last `steps` completed steps
  /// (difference of completion times, excluding the cycle's bootstrap step).
  /// Out-of-range requests clamp: fewer than two recorded steps give 0.0,
  /// and `steps` is clamped to the recorded span.
  double seconds_per_step_tail(int steps) const;

  /// Attaches an additional trace sink (event log, summary, ...). Detach
  /// any sink whose lifetime ends before this ParallelSim's.
  void attach_sink(TraceSink* sink);
  void detach_sink(const TraceSink* sink);

  /// Called at the end of every run_cycle(), after the machine has quiesced
  /// and (in numeric mode) atoms have migrated, with the completed cycle's
  /// step count. The validation subsystem (check::InvariantChecker) attaches
  /// through this hook; replaces any previous observer.
  using CycleObserver = std::function<void(const ParallelSim&, int steps)>;
  void set_cycle_observer(CycleObserver obs) { cycle_observer_ = std::move(obs); }

  /// Ideal per-step times by category from the work cache (for audits and
  /// speedup denominators).
  double ideal_nonbonded_seconds() const;
  double ideal_bonded_seconds() const;
  double ideal_integration_seconds() const;

  // --- state access for tests ----------------------------------------
  const std::vector<int>& patch_home() const { return patch_home_; }
  const std::vector<int>& compute_pe() const { return compute_pe_; }
  int proxy_count() const;
  /// Max remote PEs any single patch's coordinates are multicast to.
  int max_proxies_per_patch() const;

  /// Numeric mode: state gathered by global atom id.
  std::vector<Vec3> gather_positions() const;
  std::vector<Vec3> gather_velocities() const;
  std::vector<Vec3> gather_forces() const;

  /// Numeric mode: potential energy accumulated by computes at step s
  /// (global step index). Folded in canonical compute-id order at cycle
  /// end, so the value is bitwise identical across backends, placements
  /// and thread counts. Out-of-range steps give zero terms.
  EnergyTerms potential_terms_at_step(int s) const;
  double potential_at_step(int s) const;
  /// Reduction results per round (numeric: sum over patches of local
  /// kinetic energy; frozen: patch count).
  const std::vector<double>& reduction_results() const { return reduction_totals_; }

  int total_steps() const { return global_steps_; }
  const LoadDatabase& load_database() const { return *db_; }
  const ParallelOptions& options() const { return opts_; }
  const Molecule& molecule() const { return *mol_; }
  int patch_count() const;

  // --- resilience ------------------------------------------------------
  /// True when every patch finished the last run_cycle's final step. A
  /// false value after run_cycle means work was lost to faults and not
  /// recovered (no checkpoint, or the restart cap was hit); the invariant
  /// checker uses this to tell "stalled by fault" from a runtime bug.
  bool last_cycle_complete() const;

  /// Serialized coordinated checkpoint of the current state — the same blob
  /// the process backend writes to disk (wire-encoded, raw IEEE bits).
  /// Requires a quiesced machine (between run_cycle calls). The serve layer
  /// preempts jobs with this: export, destroy the sim, later import into a
  /// fresh ParallelSim built from the same workload and options.
  std::vector<std::uint8_t> export_state() const;
  /// Adopts a blob produced by export_state() on a compatible ParallelSim
  /// (same workload, same patch/compute structure) and rebuilds the
  /// dataflow and reducer around the restored placement. The whole blob is
  /// validated before any state changes: a malformed or incompatible blob
  /// throws StateDecodeError and leaves this sim untouched.
  /// Unlike a fault restore, this counts no restart and charges no lost
  /// time: resuming from an imported checkpoint continues the run exactly
  /// where the exporting sim stopped, bitwise.
  void import_state(const std::vector<std::uint8_t>& blob);

  int checkpoints_taken() const { return checkpoints_taken_; }
  int restarts() const { return restarts_; }
  /// Virtual seconds of lost work re-executed across all restarts (the
  /// restart latency the audit reports).
  double restart_latency() const { return restart_lost_time_; }
  /// Reliable-delivery layer, if enabled (nullptr otherwise).
  const ReliableComm* reliable() const { return reliable_.get(); }

  /// True when the workload runs full electrostatics and this sim therefore
  /// hosts parallel PME slab objects.
  bool pme_enabled() const { return pme_plan_ != nullptr; }
  /// Home PE of every PME slab object (empty when PME is off).
  const std::vector<int>& slab_pe() const { return slab_pe_; }

 private:
  struct PatchRt;
  struct ProxyRt;
  struct ComputeRt;
  struct PmeSlabRt;
  // The runtime messages that can cross a worker (parallel_sim_rt.hpp).
  struct CoordsMsg;
  struct ForcesMsg;
  struct PmeAtomsMsg;
  template <bool kForward> struct PmeBlockMsg;
  struct PmeForceMsg;

  void build_initial_placement();
  void rebuild_dataflow();
  void rebuild_reducer();
  void publish_coords(ExecContext& ctx, int patch);
  void on_recv_coords(ExecContext& ctx, int patch, int pe);
  void run_compute(ExecContext& ctx, int compute);
  void complete_patch_on_pe(ExecContext& ctx, int patch, int pe);
  /// `from_proxy` is the contributing proxy's index (only consumed by the
  /// injected arrival-order defect; -1 for contribution-less patches).
  void on_contribution(ExecContext& ctx, int patch, int from_proxy);
  void advance(ExecContext& ctx, int patch);
  void migrate_atoms();
  // --- parallel PME pipeline (see the "Parallel PME" section in the .cpp) --
  /// Initial slab placement: round-robin over all PEs, or pinned onto the
  /// last `pme.dedicated_ranks` PEs.
  void pme_place_slabs();
  /// Patch-side: one atoms message per slab, sent alongside the coordinate
  /// multicast every force round.
  void publish_pme_atoms(ExecContext& ctx, int patch);
  void pme_spread_and_transpose(ExecContext& ctx, int slab);
  void pme_convolve_and_return(ExecContext& ctx, int slab);
  void pme_gather_and_send(ExecContext& ctx, int slab);
  /// Modeled DES cost of one slab task phase (identical in numeric and
  /// frozen mode, so frozen-mode benchmarks price PME realistically).
  double pme_phase_cost(int slab, int phase) const;
  int proxy_index(int patch, int pe) const;
  /// Modeled size of a message carrying `n` items of `item_bytes` each.
  std::size_t msg_bytes(std::size_t n, std::size_t item_bytes) const {
    return static_cast<std::size_t>(opts_.msg_header_bytes) + n * item_bytes;
  }
  /// Applies the machine's multiplicative task-time noise to a cost.
  double noisy(double cost);
  /// Routes through the reliable layer when enabled, else a raw send.
  void rsend(ExecContext& ctx, int dest, TaskMsg msg);

  // --- runtime messages (parallel_sim_rt.hpp) ----------------------------
  /// Each message's field list: encodes it at a send that crosses a
  /// worker, and decodes and validates it at the receiving worker.
  template <class Io> void io_msg(Io& io, CoordsMsg& m);
  template <class Io> void io_msg(Io& io, ForcesMsg& m);
  template <class Io> void io_msg(Io& io, PmeAtomsMsg& m);
  template <class Io, bool kForward> void io_msg(Io& io, PmeBlockMsg<kForward>& m);
  template <class Io> void io_msg(Io& io, PmeForceMsg& m);
  template <class Io> void io_msg(Io& io, ReductionMsg& m) { reducer_->io(io, m); }
  /// Each message's handler: the in-process task and the decoded wire task
  /// both run it. The PME ones drive the slab phases (see the .cpp).
  void recv(ExecContext& ctx, CoordsMsg& m);
  void recv(ExecContext& ctx, ForcesMsg& m);
  void recv(ExecContext& ctx, PmeAtomsMsg& m);
  template <bool kForward> void recv(ExecContext& ctx, PmeBlockMsg<kForward>& m);
  void recv(ExecContext& ctx, PmeForceMsg& m);
  void recv(ExecContext& ctx, ReductionMsg& m) { reducer_->recv(ctx, m); }
  /// The task that delivers `m`: it runs recv(m).
  template <class Msg> TaskFn deliver(Msg m);
  /// A message for `dest` carrying `m`: it runs recv(m) wherever it lands,
  /// and it also carries m's encoded fields when `dest` lies in another
  /// worker. The one place a send tests for crossing a worker.
  template <class Msg> TaskMsg carry(ExecContext& ctx, int dest, EntryId entry, Msg m);
  /// Registers Msg's decoder for `entry` with the process backend.
  template <class Msg> void register_msg(EntryId entry);
  /// One quiesced cycle attempt (the pre-resilience run_cycle body).
  void attempt_cycle(int steps);
  void take_checkpoint();
  void restore_checkpoint();
  /// True when a checkpoint exists to restore from (in memory for the DES
  /// backend, on disk for the process backend).
  bool have_checkpoint() const { return !ckpt_.empty() || ckpt_on_disk_; }

  // --- the state codec (sim_state.cpp) ---------------------------------
  /// Names every checkpointed field once, in wire order. A writer encodes
  /// them; a reader decodes, validates against this sim, and applies them
  /// only once the whole blob has checked out.
  template <class Io> void io_state(Io& io);
  /// The worker state frame: what one worker's epoch mutated (owned patch
  /// motion, owned compute/slab energy rows, the reduction tail). It has no
  /// indices: supervisor and worker walk the same fixed ownership.
  template <class Io> void io_worker_state(Io& io, int worker);
  /// Validates `blob` whole, then applies it and returns its snapshot time.
  /// Throws StateDecodeError, with this sim untouched, on a bad blob.
  double decode_state(const std::vector<std::uint8_t>& blob);
  /// After a decode: drops stale reliable-layer sends and rebuilds the
  /// reducer and dataflow around the restored placement (evacuating failed
  /// PEs when there are any). Shared by fault restore and import_state.
  void adopt_restored_state();
  /// Process-backend wire plumbing: the message decoders, plus the
  /// end-of-run state flush/merge.
  void setup_process_wire();
  std::vector<std::uint8_t> flush_worker_state(int worker) const;
  void merge_worker_state(int worker, const std::vector<std::uint8_t>& blob);
  /// The load balancer's input for the migratable computes, one object per
  /// compute in compute order; `object_compute` maps each object back to its
  /// compute id.
  LbProblem lb_problem(std::vector<int>& object_compute) const;
  /// Re-homes a failed PE's patches and computes onto survivors and
  /// rebuilds the reducer and the dataflow. Records kEvacuation.
  void evacuate_failed_pes(const std::vector<int>& dead);

  const Workload* wl_;
  ParallelOptions opts_;
  const Molecule* mol_;
  ExclusionTable excl_;                 // numeric mode
  std::vector<double> charges_;
  std::vector<int> lj_types_;
  std::unique_ptr<NonbondedContext> nb_ctx_;
  // Tiled-kernel scratch (numeric mode, Workload::nonbonded.kernel ==
  // kTiled). One workspace per PE: under the threaded backend each PE's
  // worker runs kernels concurrently, and the scratch must not be shared.
  std::vector<TiledWorkspace> tiled_ws_;

  std::unique_ptr<ExecBackend> exec_;
  Simulator* des_ = nullptr;  ///< exec_ downcast when simulated, else null
  ProcessBackend* proc_ = nullptr;  ///< exec_ downcast when process, else null
  MultiSink sinks_;
  std::unique_ptr<LoadDatabase> db_;

  // Entry ids.
  EntryId e_advance_, e_coords_, e_forces_, e_self_, e_pair_, e_bonded_intra_,
      e_bonded_inter_, e_reduction_, e_migrate_, e_checkpoint_;
  // Parallel PME entries (registered only when the workload enables
  // full_elec; see the "Parallel PME" section in the .cpp).
  EntryId e_pme_atoms_{}, e_pme_tr_fwd_{}, e_pme_tr_bwd_{}, e_pme_force_{};

  std::vector<PatchRt> patches_;
  std::vector<ProxyRt> proxies_;
  std::vector<std::vector<int>> patch_proxy_ids_;  // patch -> proxy indices
  /// Per patch: every (proxy index, scratch slot) contributing a force
  /// buffer, sorted by the contributing compute's global id. advance()
  /// folds in this order, making the total force independent of placement,
  /// execution order, backend and thread count.
  std::vector<std::vector<std::pair<int, int>>> patch_contribs_;
  std::vector<ComputeRt> computes_;
  std::vector<int> patch_home_;
  std::vector<int> compute_pe_;
  std::vector<std::pair<int, int>> atom_loc_;  // global atom -> (patch, index)

  std::unique_ptr<Reducer> reducer_;
  std::vector<double> reduction_totals_;
  CycleObserver cycle_observer_;
  Rng noise_rng_{0xC0FFEE};

  int cycle_target_ = 0;       // per-cycle steps
  int global_steps_ = 0;       // completed steps across cycles
  int step_base_ = 0;          // global index of the current cycle's step 0
  std::vector<int> steps_done_counter_;
  std::vector<double> step_completion_;
  /// Latest advance() completion seen per global step. Under the process
  /// backend each worker only sees its own patches' advances, so workers
  /// flush (counter delta, latest advance time) per step and the parent
  /// reconstructs step_completion_ as the max once the summed counter
  /// reaches active_patches_.
  std::vector<double> step_last_advance_;
  /// Guards the cross-patch step bookkeeping above: under the threaded
  /// backend, advance() for different patches runs on different workers.
  std::mutex progress_mu_;
  /// Per-(compute, local step) potential terms for the running cycle,
  /// indexed compute * (cycle_target_ + 1) + step. Disjoint slots (no
  /// sharing), written by assignment (idempotent under fault replay),
  /// folded into potential_per_step_ in compute-id order at cycle end.
  std::vector<EnergyTerms> potential_scratch_;
  std::vector<EnergyTerms> potential_per_step_;
  int active_patches_ = 0;

  // --- parallel PME state (null / empty when full_elec is off) ---------
  std::unique_ptr<PmeSlabPlan> pme_plan_;
  std::vector<PmeSlabRt> pme_slabs_;
  std::vector<int> slab_pe_;  ///< home PE of each slab (an LB object)
  /// Per-(slab, local step) reciprocal + correction + self energy partial,
  /// indexed slab * (cycle_target_ + 1) + step; written by assignment,
  /// folded into potential_per_step_.elec in slab order at cycle end.
  std::vector<double> pme_scratch_;

  // Resilience state.
  std::unique_ptr<ReliableComm> reliable_;
  std::vector<std::uint8_t> ckpt_;  ///< DES: in-memory checkpoint blob
  bool ckpt_on_disk_ = false;  ///< process backend: checkpoint lives on disk
  std::vector<int> cycles_since_ckpt_;  // step counts of cycles to replay
  int checkpoints_taken_ = 0;
  int restarts_ = 0;
  double restart_lost_time_ = 0.0;
};

}  // namespace scalemd
