#include "core/parallel_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

#include "core/parallel_sim_rt.hpp"
#include "ewald/full_elec.hpp"
#include "lb/diffusion.hpp"
#include "lb/evacuate.hpp"
#include "lb/greedy.hpp"
#include "lb/naive.hpp"
#include "lb/problem.hpp"
#include "lb/rcb.hpp"
#include "lb/refine.hpp"
#include "rts/multicast.hpp"
#include "rts/threaded_backend.hpp"
#include "seq/integrator.hpp"
#include "util/units.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

namespace {

/// Probe pass: run the unsplit non-bonded kernels once to measure real
/// per-object costs, so grain-size splitting works from measurements.
MeasuredCosts probe_costs(const Molecule& mol, const Decomposition& d,
                          const MachineModel& machine, const NonbondedOptions& nb) {
  ComputePlanOptions probe_opts;
  probe_opts.split_self = false;
  probe_opts.split_face_pairs = false;
  probe_opts.migratable_intra_bonded = false;
  const ComputePlan probe(d, mol, machine, probe_opts);
  const WorkCache w(mol, d, probe, nb);
  MeasuredCosts mc;
  mc.self.assign(static_cast<std::size_t>(d.patch_count()), 0.0);
  for (std::size_t i = 0; i < probe.computes().size(); ++i) {
    const ComputeDesc& desc = probe.computes()[i];
    const double cost = work_cost(w.per_compute(i), machine);
    if (desc.kind == ComputeKind::kSelf) {
      mc.self[static_cast<std::size_t>(desc.patches[0])] = cost;
    } else if (desc.kind == ComputeKind::kPair) {
      mc.pair[{desc.patches[0], desc.patches[1]}] = cost;
    }
  }
  return mc;
}

}  // namespace

Workload::Workload(const Molecule& molecule, const MachineModel& machine,
                   const NonbondedOptions& nonbonded_opts,
                   const ComputePlanOptions& plan_opts)
    : mol(&molecule),
      nonbonded(nonbonded_opts),
      decomp(molecule, nonbonded_opts.cutoff),
      measured(probe_costs(molecule, decomp, machine, nonbonded_opts)),
      plan(decomp, molecule, machine, plan_opts, &measured),
      work(molecule, decomp, plan, nonbonded_opts) {}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ParallelSim::ParallelSim(const Workload& workload, const ParallelOptions& opts)
    : wl_(&workload), opts_(opts), mol_(workload.mol) {
  // Parallelism lives at one level, the PE: a thread pool inside a compute
  // task would oversubscribe the threaded backend's workers and the process
  // backend's worker processes. The check runs in every build type, on
  // every backend, before anything is started.
  if (wl_->nonbonded.kernel == NonbondedKernel::kTiledThreads) {
    throw std::invalid_argument(
        "ParallelSim: the tiled+threads kernel is a sequential-engine option; "
        "the runtime takes scalar or tiled");
  }
  if (opts_.numeric) {
    excl_ = ExclusionTable::build(*mol_);
    charges_.reserve(static_cast<std::size_t>(mol_->atom_count()));
    for (const Atom& a : mol_->atoms()) {
      charges_.push_back(a.charge);
      lj_types_.push_back(a.lj_type);
    }
    nb_ctx_ = std::make_unique<NonbondedContext>(mol_->params, excl_, charges_,
                                                 lj_types_, wl_->nonbonded);
    tiled_ws_.resize(static_cast<std::size_t>(opts_.num_pes));
  }

  if (opts_.backend == BackendKind::kThreaded) {
    // The threaded backend runs tasks for real: only numeric mode has real
    // work to run, and the layers built on DES timer semantics (fault
    // injection, reliable delivery, checkpoint/restart) stay DES-only.
    assert(opts_.numeric && "threaded backend requires numeric mode");
    assert(opts_.fault.empty() && !opts_.reliable &&
           opts_.checkpoint_every == 0 &&
           "fault/recovery layers require the simulated backend");
    exec_ = std::make_unique<ThreadedBackend>(opts_.num_pes, opts_.machine,
                                              opts_.threads);
  } else if (opts_.backend == BackendKind::kProcess) {
    // The process backend also executes for real, in forked worker
    // processes. Modeled fault plans and reliable delivery stay DES-only,
    // but checkpointing IS supported: failures here are real worker deaths
    // (SIGKILL, crash, hang), and recovery replays from an on-disk
    // checkpoint.
    assert(opts_.numeric && "process backend requires numeric mode");
    assert(opts_.fault.empty() && !opts_.reliable &&
           "fault modeling and reliable delivery require the simulated backend");
    auto proc = std::make_unique<ProcessBackend>(opts_.num_pes, opts_.machine,
                                                 opts_.process);
    proc_ = proc.get();
    exec_ = std::move(proc);
  } else {
    auto des = std::make_unique<Simulator>(opts_.num_pes, opts_.machine);
    des_ = des.get();
    exec_ = std::move(des);
    if (!opts_.fault.empty()) des_->set_fault_plan(opts_.fault);
  }
  EntryRegistry& reg = exec_->entries();
  e_advance_ = reg.add("Patch::integrate", WorkCategory::kIntegration);
  e_coords_ = reg.add("Proxy::recvCoordinates", WorkCategory::kComm);
  e_forces_ = reg.add("Patch::recvForces", WorkCategory::kComm);
  e_self_ = reg.add("ComputeNonbondedSelf::doWork", WorkCategory::kNonbonded);
  e_pair_ = reg.add("ComputeNonbondedPair::doWork", WorkCategory::kNonbonded);
  e_bonded_intra_ = reg.add("ComputeBondedIntra::doWork", WorkCategory::kBonded);
  e_bonded_inter_ = reg.add("ComputeBondedInter::doWork", WorkCategory::kBonded);
  e_reduction_ = reg.add("Reduction::combine", WorkCategory::kComm);
  e_migrate_ = reg.add("Migrate::recv", WorkCategory::kComm);
  e_checkpoint_ = reg.add("Checkpoint::store", WorkCategory::kComm);
  if (wl_->nonbonded.full_elec.enabled) {
    // Full electrostatics: S slab objects carry the reciprocal solve. The
    // entries exist on every backend (the process wire needs their ids
    // before setup_process_wire registers decoders).
    assert(full_elec_error(wl_->nonbonded.full_elec) == nullptr &&
           "invalid full-electrostatics options");
    pme_plan_ = std::make_unique<PmeSlabPlan>(
        mol_->box, to_pme_options(wl_->nonbonded.full_elec),
        std::max(1, opts_.pme.slabs));
    e_pme_atoms_ = reg.add("PmeSlab::recvAtoms", WorkCategory::kNonbonded);
    e_pme_tr_fwd_ =
        reg.add("PmeSlab::recvTransposeFwd", WorkCategory::kNonbonded);
    e_pme_tr_bwd_ =
        reg.add("PmeSlab::recvTransposeBwd", WorkCategory::kNonbonded);
    e_pme_force_ = reg.add("Patch::recvPmeForces", WorkCategory::kComm);
  }
  if (opts_.reliable) {
    assert(des_ != nullptr);
    reliable_ = std::make_unique<ReliableComm>(*des_, opts_.reliable_opts);
  }
  if (proc_ != nullptr) setup_process_wire();

  // PME slabs are load-balancer objects too: their task records use ids
  // just past the migratable computes (see load_balance).
  db_ = std::make_unique<LoadDatabase>(
      static_cast<std::size_t>(wl_->plan.migratable_count()) +
          (pme_plan_ != nullptr ? static_cast<std::size_t>(pme_plan_->slabs())
                                : 0),
      opts_.num_pes);
  sinks_.add(db_.get());
  exec_->set_sink(&sinks_);

  // Patch runtime state from the decomposition.
  const auto& patch_atoms = wl_->decomp.patch_atoms();
  patches_.resize(patch_atoms.size());
  atom_loc_.resize(static_cast<std::size_t>(mol_->atom_count()));
  for (std::size_t p = 0; p < patch_atoms.size(); ++p) {
    PatchRt& pr = patches_[p];
    pr.atoms = patch_atoms[p];
    if (opts_.numeric) {
      pr.pos.reserve(pr.atoms.size());
      pr.vel.reserve(pr.atoms.size());
      pr.mass.reserve(pr.atoms.size());
      for (int a : pr.atoms) {
        pr.pos.push_back(mol_->positions()[static_cast<std::size_t>(a)]);
        pr.vel.push_back(mol_->velocities()[static_cast<std::size_t>(a)]);
        pr.mass.push_back(mol_->atoms()[static_cast<std::size_t>(a)].mass);
      }
      pr.frc.assign(pr.atoms.size(), Vec3{});
    }
    for (std::size_t i = 0; i < pr.atoms.size(); ++i) {
      atom_loc_[static_cast<std::size_t>(pr.atoms[i])] = {static_cast<int>(p),
                                                          static_cast<int>(i)};
    }
  }
  active_patches_ = static_cast<int>(patches_.size());

  // Compute runtime state.
  computes_.resize(wl_->plan.computes().size());
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    computes_[i].deps = wl_->plan.computes()[i].patches;
  }

  if (pme_plan_ != nullptr) {
    pme_slabs_.resize(static_cast<std::size_t>(pme_plan_->slabs()));
    pme_place_slabs();
  }

  build_initial_placement();
  rebuild_dataflow();
  rebuild_reducer();
}

ParallelSim::~ParallelSim() = default;

void ParallelSim::build_initial_placement() {
  // Stage 1 of the paper's load balancing: recursive coordinate bisection of
  // patches, then computes placed on the home PE of their base patch. A
  // caller that already has the RCB result (the serve topology cache shares
  // one across identical-topology jobs) passes it in instead.
  if (opts_.initial_patch_home != nullptr &&
      opts_.initial_patch_home->size() ==
          static_cast<std::size_t>(wl_->decomp.patch_count())) {
    patch_home_ = *opts_.initial_patch_home;
  } else {
    patch_home_ = rcb_patch_map(wl_->decomp.patch_centers(),
                                wl_->decomp.patch_weights(), opts_.num_pes);
  }
  compute_pe_.resize(wl_->plan.computes().size());
  for (std::size_t i = 0; i < compute_pe_.size(); ++i) {
    compute_pe_[i] =
        patch_home_[static_cast<std::size_t>(wl_->plan.computes()[i].base_patch)];
  }
}

void ParallelSim::rebuild_reducer() {
  // Per-step energy reduction: one contribution per patch, from its home PE.
  // Rebuilt whenever patch homes change (evacuation): the tree spans the
  // contributing PEs. A rebuild also discards any partially filled round,
  // which is exactly what checkpoint restart needs.
  std::vector<int> contributor_pes;
  contributor_pes.reserve(patches_.size());
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    contributor_pes.push_back(patch_home_[p]);
  }
  reducer_ = std::make_unique<Reducer>(
      contributor_pes, e_reduction_, [this](int round, double total) {
        if (static_cast<std::size_t>(round) >= reduction_totals_.size()) {
          reduction_totals_.resize(static_cast<std::size_t>(round) + 1, 0.0);
        }
        reduction_totals_[static_cast<std::size_t>(round)] = total;
      });
  if (reliable_) reducer_->set_reliable(reliable_.get());
  reducer_->expect_rounds(step_base_, step_base_ + cycle_target_);
}

void ParallelSim::rsend(ExecContext& ctx, int dest, TaskMsg msg) {
  if (reliable_) {
    reliable_->send(ctx, dest, std::move(msg));
  } else {
    ctx.send(dest, std::move(msg));
  }
}

void ParallelSim::rebuild_dataflow() {
  proxies_.clear();
  patch_proxy_ids_.assign(patches_.size(), {});

  auto proxy_for = [&](int patch, int pe) -> ProxyRt& {
    for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
      if (proxies_[static_cast<std::size_t>(id)].pe == pe) {
        return proxies_[static_cast<std::size_t>(id)];
      }
    }
    patch_proxy_ids_[static_cast<std::size_t>(patch)].push_back(
        static_cast<int>(proxies_.size()));
    proxies_.push_back(ProxyRt{patch, pe, {}, 0, {}});
    return proxies_.back();
  };

  for (std::size_t i = 0; i < computes_.size(); ++i) {
    for (int patch : computes_[i].deps) {
      proxy_for(patch, compute_pe_[i]).computes.push_back(static_cast<int>(i));
    }
    computes_[i].deps_pending = static_cast<int>(computes_[i].deps.size());
  }

  patch_contribs_.assign(patches_.size(), {});
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    patches_[p].contrib_expected =
        static_cast<int>(patch_proxy_ids_[p].size());
    // Full electrostatics: the patch also waits for one force share from
    // every PME slab each round.
    if (pme_plan_ != nullptr) {
      patches_[p].contrib_expected += pme_plan_->slabs();
    }
    patches_[p].contrib_received = 0;
    if (opts_.numeric) {
      // Canonical fold order for the patch's force: every contributing
      // (proxy, slot) pair sorted by compute id. Within one proxy the
      // slots are already ascending (computes registered in id order), so
      // sorting by the slot's compute id gives one global order that no
      // placement or schedule can change.
      std::vector<std::pair<int, std::pair<int, int>>> order;
      for (int id : patch_proxy_ids_[p]) {
        ProxyRt& proxy = proxies_[static_cast<std::size_t>(id)];
        proxy.scratch.assign(proxy.computes.size(),
                             std::vector<Vec3>(patches_[p].atoms.size()));
        for (std::size_t k = 0; k < proxy.computes.size(); ++k) {
          order.push_back({proxy.computes[k], {id, static_cast<int>(k)}});
        }
      }
      std::sort(order.begin(), order.end());
      patch_contribs_[p].reserve(order.size());
      for (const auto& o : order) patch_contribs_[p].push_back(o.second);
    }
  }
}

double ParallelSim::noisy(double cost) {
  const double sigma = opts_.machine.task_noise;
  if (sigma <= 0.0) return cost;
  return cost * std::max(0.2, 1.0 + sigma * noise_rng_.normal());
}

int ParallelSim::proxy_index(int patch, int pe) const {
  for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
    if (proxies_[static_cast<std::size_t>(id)].pe == pe) return id;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Step dataflow
// ---------------------------------------------------------------------------

void ParallelSim::publish_coords(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  const std::size_t bytes = msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_coord);

  // Home-side proxy (if any computes run here) is serviced directly.
  std::vector<int> remote;
  for (int id : patch_proxy_ids_[static_cast<std::size_t>(patch)]) {
    const int pe = proxies_[static_cast<std::size_t>(id)].pe;
    if (pe == home) {
      on_recv_coords(ctx, patch, pe);
    } else {
      remote.push_back(pe);
    }
  }
  multicast(
      ctx, remote, bytes, opts_.optimized_multicast,
      [this, &ctx, patch](int pe) {
        TaskMsg msg = carry(ctx, pe, e_coords_, CoordsMsg{patch});
        msg.priority = -1;
        return msg;
      },
      reliable_.get());

  // Full electrostatics: deposit this patch's positions on every PME slab
  // (with PME on, contrib_expected >= slabs > 0, so the empty-patch special
  // case below stays dormant and even an empty patch is gated on the slab
  // force shares).
  if (pme_plan_ != nullptr) publish_pme_atoms(ctx, patch);

  // A patch no compute reads (e.g. an empty cube) must still advance.
  if (pr.contrib_expected == 0) {
    on_contribution(ctx, patch, -1);
  }
}

void ParallelSim::recv(ExecContext& ctx, CoordsMsg& m) {
  ctx.charge_pack(
      static_cast<double>(msg_bytes(patches_[static_cast<std::size_t>(m.patch)].atoms.size(),
                                    opts_.bytes_per_atom_coord)) *
      ctx.machine().unpack_byte_cost);
  on_recv_coords(ctx, m.patch, ctx.pe());
}

void ParallelSim::on_recv_coords(ExecContext& ctx, int patch, int pe) {
  ProxyRt& proxy = proxies_[static_cast<std::size_t>(proxy_index(patch, pe))];
  proxy.pending = static_cast<int>(proxy.computes.size());
  if (opts_.numeric) {
    for (auto& s : proxy.scratch) std::fill(s.begin(), s.end(), Vec3{});
  }
  for (int c : proxy.computes) {
    if (--computes_[static_cast<std::size_t>(c)].deps_pending == 0) {
      computes_[static_cast<std::size_t>(c)].deps_pending =
          static_cast<int>(computes_[static_cast<std::size_t>(c)].deps.size());
      const ComputeDesc& desc = wl_->plan.computes()[static_cast<std::size_t>(c)];
      TaskMsg msg;
      msg.entry = desc.kind == ComputeKind::kSelf   ? e_self_
                  : desc.kind == ComputeKind::kPair ? e_pair_
                  : desc.migratable                 ? e_bonded_intra_
                                                    : e_bonded_inter_;
      const int mi = wl_->plan.migratable_index()[static_cast<std::size_t>(c)];
      msg.object = mi >= 0 ? static_cast<std::uint64_t>(mi) + 1 : 0;
      msg.fn = [this, c](ExecContext& cc) { run_compute(cc, c); };
      ctx.send(pe, std::move(msg));
    }
  }
}

void ParallelSim::run_compute(ExecContext& ctx, int compute) {
  const ComputeDesc& desc = wl_->plan.computes()[static_cast<std::size_t>(compute)];
  ComputeRt& rt = computes_[static_cast<std::size_t>(compute)];
  const int pe = ctx.pe();

  if (opts_.numeric) {
    const int step_global = step_base_ + patches_[static_cast<std::size_t>(
                                             desc.patches[0])].step;
    // This compute's private force buffer for `patch` (its slot in the
    // proxy's scratch); accumulation into the shared buffer happens in
    // canonical slot order at complete_patch_on_pe.
    auto scratch_of = [&](int patch) -> std::vector<Vec3>& {
      ProxyRt& proxy =
          proxies_[static_cast<std::size_t>(proxy_index(patch, pe))];
      for (std::size_t k = 0; k < proxy.computes.size(); ++k) {
        if (proxy.computes[k] == compute) return proxy.scratch[k];
      }
      assert(false && "compute not registered on its proxy");
      return proxy.scratch[0];
    };
    const auto patch_of = [&](int k) {
      const int p = desc.patches[static_cast<std::size_t>(k)];
      const PatchRt& pr = patches_[static_cast<std::size_t>(p)];
      return PatchView{pr.atoms, pr.pos, scratch_of(p)};
    };
    // Bonded terms fetch coordinates by atom location and scatter forces
    // into this compute's scratch slots of the owning patches' proxies.
    const auto pos_of = [&](int atom) -> const Vec3& {
      const auto [p, idx] = atom_loc_[static_cast<std::size_t>(atom)];
      return patches_[static_cast<std::size_t>(p)].pos[static_cast<std::size_t>(idx)];
    };
    const auto frc_of = [&](int atom) -> Vec3& {
      const auto [p, idx] = atom_loc_[static_cast<std::size_t>(atom)];
      return scratch_of(p)[static_cast<std::size_t>(idx)];
    };
    TiledWorkspace* tiled = wl_->nonbonded.kernel == NonbondedKernel::kTiled
                                ? &tiled_ws_[static_cast<std::size_t>(pe)]
                                : nullptr;
    WorkCounters w;
    const EnergyTerms e =
        evaluate_compute(desc, *mol_, *nb_ctx_, tiled, patch_of, pos_of, frc_of, w);
    // Potential energy goes into this compute's private (compute, step)
    // slot by assignment — no shared accumulator to race on or to
    // double-count under fault replay. attempt_cycle folds the slots in
    // compute-id order once the cycle has quiesced.
    const int local_step = step_global - step_base_;
    if (local_step >= 0 && local_step <= cycle_target_) {
      potential_scratch_[static_cast<std::size_t>(compute) *
                             static_cast<std::size_t>(cycle_target_ + 1) +
                         static_cast<std::size_t>(local_step)] = e;
    }
    if (ctx.models_cost()) ctx.charge(noisy(work_cost(w, ctx.machine())));
  } else {
    ctx.charge(noisy(
        work_cost(wl_->work.per_compute(static_cast<std::size_t>(compute)),
                  ctx.machine())));
  }

  for (int patch : rt.deps) {
    ProxyRt& proxy = proxies_[static_cast<std::size_t>(proxy_index(patch, pe))];
    if (--proxy.pending == 0) {
      complete_patch_on_pe(ctx, patch, pe);
    }
  }
}

void ParallelSim::complete_patch_on_pe(ExecContext& ctx, int patch, int pe) {
  // All of this PE's computes reading `patch` are done; their scratch
  // slots stay put (advance() folds every slot of every proxy in global
  // compute-id order) and the home patch just gets the completion signal.
  // Under the threaded backend the mailbox handoff of that signal is also
  // what makes the slot writes visible to the home PE's worker.
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  const int pxy = proxy_index(patch, pe);
  if (pe == home) {
    on_contribution(ctx, patch, pxy);
    return;
  }
  const std::size_t bytes =
      msg_bytes(patches_[static_cast<std::size_t>(patch)].atoms.size(),
                opts_.bytes_per_atom_force);
  TaskMsg msg = carry(ctx, home, e_forces_, ForcesMsg{patch, pxy});
  msg.priority = -2;
  msg.bytes = bytes;
  // The sender also pays to pack the outgoing force message.
  ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
  rsend(ctx, home, std::move(msg));
}

void ParallelSim::recv(ExecContext& ctx, ForcesMsg& m) {
  const std::size_t bytes =
      msg_bytes(patches_[static_cast<std::size_t>(m.patch)].atoms.size(),
                opts_.bytes_per_atom_force);
  ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().unpack_byte_cost);
  on_contribution(ctx, m.patch, m.proxy);
}

void ParallelSim::on_contribution(ExecContext& ctx, int patch, int from_proxy) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  if (opts_.debug_fold_arrival_order && des_ != nullptr && from_proxy >= 0) {
    // Injected-defect bookkeeping only; see advance(). on_contribution runs
    // on the home PE exclusively, so this append is unsynchronized-safe.
    pr.arrival.push_back(from_proxy);
  }
  ++pr.contrib_received;
  if (pr.contrib_received < pr.contrib_expected) return;
  pr.contrib_received = 0;
  TaskMsg msg;
  msg.entry = e_advance_;
  msg.priority = -3;
  msg.fn = [this, patch](ExecContext& c) { advance(c, patch); };
  // on_contribution always runs on the home PE, so this send is local and
  // cannot be faulted; rsend keeps the routing uniform anyway.
  rsend(ctx, patch_home_[static_cast<std::size_t>(patch)], std::move(msg));
}

void ParallelSim::advance(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int s = pr.step;
  const int global = step_base_ + s;
  if (ctx.models_cost()) {
    ctx.charge(noisy(static_cast<double>(pr.natoms()) * ctx.machine().integrate_cost));
  }

  const double dt = opts_.dt_fs / units::kAkmaTimeFs;
  double reduction_value = 1.0;
  if (opts_.numeric) {
    std::fill(pr.frc.begin(), pr.frc.end(), Vec3{});
    const auto& contribs = patch_contribs_[static_cast<std::size_t>(patch)];
    if (opts_.debug_fold_arrival_order && des_ != nullptr) {
      // INJECTED DEFECT (ParallelOptions::debug_fold_arrival_order): fold in
      // message-ARRIVAL order instead of canonical compute-id order, so the
      // floating-point sum depends on the schedule. The scenario fuzzer's
      // self-test must detect and shrink this.
      for (const int arrived : pr.arrival) {
        for (const auto& [proxy_id, slot] : contribs) {
          if (proxy_id != arrived) continue;
          const std::vector<Vec3>& src =
              proxies_[static_cast<std::size_t>(proxy_id)]
                  .scratch[static_cast<std::size_t>(slot)];
          for (std::size_t i = 0; i < pr.frc.size(); ++i) pr.frc[i] += src[i];
        }
      }
      pr.arrival.clear();
    } else {
      // Canonical force accumulation: sum every contributing scratch slot in
      // global compute-id order (patch_contribs_), independent of message
      // arrival order, execution order, object placement and backend.
      for (const auto& [proxy_id, slot] : contribs) {
        const std::vector<Vec3>& src =
            proxies_[static_cast<std::size_t>(proxy_id)]
                .scratch[static_cast<std::size_t>(slot)];
        for (std::size_t i = 0; i < pr.frc.size(); ++i) pr.frc[i] += src[i];
      }
    }
    if (pme_plan_ != nullptr) {
      // PME slab force shares fold after the compute contributions, in slab
      // order — part of the same canonical order as the compute-id fold
      // above, so placement and schedule still cannot change a bit.
      for (const std::vector<Vec3>& blk : pr.pme_frc) {
        assert(blk.size() == pr.frc.size() && "missing PME force share");
        for (std::size_t i = 0; i < pr.frc.size(); ++i) pr.frc[i] += blk[i];
      }
    }
  }
  if (opts_.numeric) {
    const double kick_scale = s == static_cast<int>(cycle_target_) ? 0.5
                              : s == 0                             ? 0.5
                                                                   : 1.0;
    for (std::size_t i = 0; i < pr.vel.size(); ++i) {
      pr.vel[i] += pr.frc[i] * (kick_scale * dt / pr.mass[i]);
    }
    reduction_value = kinetic_energy(pr.vel, pr.mass);
  }

  if (s < cycle_target_) {
    if (opts_.numeric) {
      for (std::size_t i = 0; i < pr.pos.size(); ++i) pr.pos[i] += pr.vel[i] * dt;
    }
    pr.step = s + 1;
    publish_coords(ctx, patch);
  }

  reducer_->contribute(ctx, patch, global, reduction_value);

  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    ++steps_done_counter_[static_cast<std::size_t>(global)];
    step_last_advance_[static_cast<std::size_t>(global)] =
        std::max(step_last_advance_[static_cast<std::size_t>(global)], ctx.now());
    if (steps_done_counter_[static_cast<std::size_t>(global)] == active_patches_) {
      step_completion_[static_cast<std::size_t>(global)] = ctx.now();
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel PME pipeline
// ---------------------------------------------------------------------------
//
// Full-electrostatics runs add S slab objects to the machine, each a
// first-class message-driven object with a home PE, placeable and migratable
// like any compute. One force round runs a five-hop pipeline:
//
//   patches --atoms--> slabs   every patch deposits its positions on every
//       slab (spreading is z-local but atoms are not sorted by z, so each
//       slab needs the whole system). On the last deposit the slab spreads
//       charge onto its z-planes in global atom order and 2D-FFTs them.
//   slabs --fwd transpose--> slabs   S blocks re-lay the grid from z-planes
//       into y-row columns; the column owner z-FFTs each line, applies the
//       influence function (accumulating its reciprocal-energy partial in
//       fixed order), inverse z-FFTs, and
//   slabs --bwd transpose--> slabs   returns the blocks to the plane owners,
//       which inverse 2D-FFT, gather each atom's force share from their
//       planes, add their (slab mod S)-strided share of the exclusion
//       corrections and Ewald self energy, and
//   slabs --forces--> patches   one force share per patch; the patch folds
//       the S shares in slab order after the compute contributions.
//
// Determinism: every slab computes a pure function of the step's positions,
// every transpose block covers a disjoint grid region (insertion order
// cannot matter), and every fold is in a fixed order — so trajectories are
// bitwise identical across PE counts, placements, LB strategies and
// backends. The slab count partitions the sums, so S *is* part of the
// numerics contract and stays fixed across the differential matrix.
//
// The pipeline is a per-step barrier both ways (all patches feed all slabs,
// all patches then wait on all slabs), so one set of per-slab buffers
// suffices: no step-(s+1) message can reach a slab before its step-s state
// has been fully consumed.

void ParallelSim::pme_place_slabs() {
  const int s_count = pme_plan_->slabs();
  slab_pe_.resize(static_cast<std::size_t>(s_count));
  const int dedicated = std::min(opts_.pme.dedicated_ranks, opts_.num_pes);
  for (int s = 0; s < s_count; ++s) {
    if (dedicated > 0) {
      // Dedicated-PME-ranks mode (the trade-off NAMD weighs for its
      // reciprocal work): slabs pinned round-robin onto the last
      // `dedicated` PEs and excluded from load balancing.
      slab_pe_[static_cast<std::size_t>(s)] =
          opts_.num_pes - dedicated + (s % dedicated);
    } else {
      slab_pe_[static_cast<std::size_t>(s)] = s % opts_.num_pes;
    }
  }
}

double ParallelSim::pme_phase_cost(int slab, int phase) const {
  const MachineModel& m = opts_.machine;
  const PmeOptions& o = pme_plan_->options();
  const double stencil_work =
      static_cast<double>(mol_->atom_count()) *
      std::pow(static_cast<double>(o.order), 3.0) /
      static_cast<double>(pme_plan_->slabs());
  const double lx = std::log2(static_cast<double>(o.grid_x));
  const double ly = std::log2(static_cast<double>(o.grid_y));
  const double lz = std::log2(static_cast<double>(o.grid_z));
  const double plane_fft =
      static_cast<double>(pme_plan_->plane_points(slab)) * (lx + ly) *
      m.fft_point_cost;
  switch (phase) {
    case 0:  // spread + forward 2D FFT
      return stencil_work * m.pme_spread_cost + plane_fft;
    case 1:  // z FFT + influence multiply + inverse z FFT
      return static_cast<double>(pme_plan_->column_points(slab)) *
             (2.0 * lz + 1.0) * m.fft_point_cost;
    default:  // inverse 2D FFT + gather
      return plane_fft + stencil_work * m.pme_spread_cost;
  }
}

void ParallelSim::publish_pme_atoms(ExecContext& ctx, int patch) {
  PatchRt& pr = patches_[static_cast<std::size_t>(patch)];
  const int home = patch_home_[static_cast<std::size_t>(patch)];
  const int step = pr.step;
  const std::size_t bytes = msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_coord);
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int s = 0; s < pme_plan_->slabs(); ++s) {
    const int pe = slab_pe_[static_cast<std::size_t>(s)];
    // The slab copies the positions from the patch at handler time, which
    // is safe because the patch cannot advance past this step until the
    // slab's force share comes back.
    TaskMsg msg = carry(ctx, pe, e_pme_atoms_, PmeAtomsMsg{s, patch, step});
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(s);
    if (pe != home) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

void ParallelSim::recv(ExecContext& ctx, PmeAtomsMsg& m) {
  const PatchRt& pr = patches_[static_cast<std::size_t>(m.patch)];
  ctx.charge_pack(
      static_cast<double>(msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_coord)) *
      ctx.machine().unpack_byte_cost);
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(m.slab)];
  assert(m.step == rt.step && "PME deposit for a round the slab is not in");
  if (opts_.numeric) rt.patch_pos[static_cast<std::size_t>(m.patch)] = pr.pos;
  if (--rt.atoms_pending > 0) return;
  rt.atoms_pending = static_cast<int>(patches_.size());
  pme_spread_and_transpose(ctx, m.slab);
}

void ParallelSim::pme_spread_and_transpose(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 0)));
  if (opts_.numeric) {
    // Assemble the positions in global atom order — the order the
    // sequential Pme spreads in, so the grid values match it bitwise.
    rt.all_pos.resize(static_cast<std::size_t>(mol_->atom_count()));
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      const std::vector<int>& atoms = patches_[p].atoms;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        rt.all_pos[static_cast<std::size_t>(atoms[i])] = rt.patch_pos[p][i];
      }
    }
    std::fill(rt.planes.begin(), rt.planes.end(), std::complex<double>{});
    pme_plan_->spread(slab, rt.all_pos, charges_, rt.planes);
    pme_plan_->plane_fft(slab, rt.planes, /*inverse=*/false);
  }
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int dst = 0; dst < pme_plan_->slabs(); ++dst) {
    const int pe = slab_pe_[static_cast<std::size_t>(dst)];
    const std::size_t bytes =
        msg_bytes(pme_plan_->block_doubles(slab, dst), sizeof(double));
    std::vector<double> block;
    if (opts_.numeric) block = pme_plan_->extract_fwd(slab, dst, rt.planes);
    TaskMsg msg =
        carry(ctx, pe, e_pme_tr_fwd_, PmeBlockMsg<true>{dst, slab, std::move(block)});
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(dst);
    if (pe != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

template <bool kForward>
void ParallelSim::recv(ExecContext& ctx, PmeBlockMsg<kForward>& m) {
  // The backward block dst <- src covers the same grid region as the
  // forward block src -> dst, so it has the same size.
  const std::size_t doubles = kForward ? pme_plan_->block_doubles(m.src, m.dst)
                                       : pme_plan_->block_doubles(m.dst, m.src);
  ctx.charge_pack(static_cast<double>(msg_bytes(doubles, sizeof(double))) *
                  ctx.machine().unpack_byte_cost);
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(m.dst)];
  if constexpr (kForward) {
    if (opts_.numeric) pme_plan_->insert_fwd(m.src, m.dst, m.block, rt.columns);
    if (--rt.fwd_pending > 0) return;
    rt.fwd_pending = pme_plan_->slabs();
    pme_convolve_and_return(ctx, m.dst);
  } else {
    if (opts_.numeric) pme_plan_->insert_bwd(m.src, m.dst, m.block, rt.planes);
    if (--rt.bwd_pending > 0) return;
    rt.bwd_pending = pme_plan_->slabs();
    pme_gather_and_send(ctx, m.dst);
  }
}
// sim_state.cpp's decoders run these too.
template void ParallelSim::recv(ExecContext&, PmeBlockMsg<true>&);
template void ParallelSim::recv(ExecContext&, PmeBlockMsg<false>&);

void ParallelSim::pme_convolve_and_return(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 1)));
  if (opts_.numeric) rt.recip_energy = pme_plan_->convolve(slab, rt.columns);
  const std::uint64_t obj_base =
      static_cast<std::uint64_t>(wl_->plan.migratable_count()) + 1;
  for (int dst = 0; dst < pme_plan_->slabs(); ++dst) {
    const int pe = slab_pe_[static_cast<std::size_t>(dst)];
    const std::size_t bytes =
        msg_bytes(pme_plan_->block_doubles(dst, slab), sizeof(double));
    std::vector<double> block;
    if (opts_.numeric) block = pme_plan_->extract_bwd(slab, dst, rt.columns);
    TaskMsg msg =
        carry(ctx, pe, e_pme_tr_bwd_, PmeBlockMsg<false>{dst, slab, std::move(block)});
    msg.priority = -1;
    msg.bytes = bytes;
    msg.object = obj_base + static_cast<std::uint64_t>(dst);
    if (pe != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, pe, std::move(msg));
  }
}

void ParallelSim::pme_gather_and_send(ExecContext& ctx, int slab) {
  PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(slab)];
  if (ctx.models_cost()) ctx.charge(noisy(pme_phase_cost(slab, 2)));
  std::vector<Vec3> all_frc;
  if (opts_.numeric) {
    pme_plan_->plane_fft(slab, rt.planes, /*inverse=*/true);
    all_frc.assign(static_cast<std::size_t>(mol_->atom_count()), Vec3{});
    pme_plan_->gather(slab, rt.all_pos, charges_, rt.planes, all_frc);
    // This slab's deterministic share of the terms the grid sum does not
    // carry: the strided self energy and exclusion corrections (their
    // forces land in all_frc by global id, riding the same force shares).
    const double alpha = wl_->nonbonded.full_elec.alpha;
    double e = rt.recip_energy;
    e += ewald_self_energy_strided(alpha, charges_, slab, pme_plan_->slabs());
    e += full_elec_exclusion_corrections(excl_, mol_->params, alpha, charges_,
                                         rt.all_pos, all_frc, slab,
                                         pme_plan_->slabs());
    // Assignment, not += — fault replay of the round stays idempotent.
    pme_scratch_[static_cast<std::size_t>(slab) *
                     static_cast<std::size_t>(cycle_target_ + 1) +
                 static_cast<std::size_t>(rt.step)] = e;
  }
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    const int patch = static_cast<int>(p);
    const int home = patch_home_[p];
    const std::size_t bytes =
        msg_bytes(patches_[p].atoms.size(), opts_.bytes_per_atom_force);
    std::vector<Vec3> frc;
    if (opts_.numeric) {
      frc.reserve(patches_[p].atoms.size());
      for (int a : patches_[p].atoms) {
        frc.push_back(all_frc[static_cast<std::size_t>(a)]);
      }
    }
    TaskMsg msg =
        carry(ctx, home, e_pme_force_, PmeForceMsg{patch, slab, std::move(frc)});
    msg.priority = -2;
    msg.bytes = bytes;
    if (home != ctx.pe()) {
      ctx.charge_pack(static_cast<double>(bytes) * ctx.machine().pack_byte_cost);
    }
    rsend(ctx, home, std::move(msg));
  }
  // Round complete: rearm for the next step. The per-step barrier
  // guarantees no next-round message has arrived yet, and the grid chunks
  // need no zeroing (spread zeroes planes first; every transpose insertion
  // fully overwrites its region).
  rt.step += 1;
  rt.recip_energy = 0.0;
}

void ParallelSim::recv(ExecContext& ctx, PmeForceMsg& m) {
  PatchRt& pr = patches_[static_cast<std::size_t>(m.patch)];
  ctx.charge_pack(
      static_cast<double>(msg_bytes(pr.atoms.size(), opts_.bytes_per_atom_force)) *
      ctx.machine().unpack_byte_cost);
  if (opts_.numeric) {
    assert(m.frc.size() == pr.atoms.size());
    pr.pme_frc[static_cast<std::size_t>(m.slab)] = std::move(m.frc);
  }
  on_contribution(ctx, m.patch, -1);
}

// ---------------------------------------------------------------------------
// Cycle and benchmark control
// ---------------------------------------------------------------------------

void ParallelSim::attempt_cycle(int steps) {
  assert(steps >= 1);
  cycle_target_ = steps;
  step_base_ = static_cast<int>(step_completion_.size());
  step_completion_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0.0);
  step_last_advance_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0.0);
  steps_done_counter_.resize(static_cast<std::size_t>(step_base_ + steps + 1), 0);
  reducer_->expect_rounds(step_base_, step_base_ + steps);
  if (opts_.numeric) {
    // One slot per (compute, local step); a cycle of T steps runs T + 1
    // force rounds (bootstrap step 0 through the closing half-kick at T).
    potential_scratch_.assign(
        computes_.size() * static_cast<std::size_t>(steps + 1), EnergyTerms{});
  }
  if (pme_plan_ != nullptr) {
    // Reset every slab for the cycle. A replayed cycle (fault recovery)
    // resets the same way, and the per-(slab, step) energy slots below are
    // written by assignment, so replay stays idempotent.
    const int s_count = pme_plan_->slabs();
    if (opts_.numeric) {
      pme_scratch_.assign(static_cast<std::size_t>(s_count) *
                              static_cast<std::size_t>(steps + 1),
                          0.0);
    }
    for (int s = 0; s < s_count; ++s) {
      PmeSlabRt& rt = pme_slabs_[static_cast<std::size_t>(s)];
      rt.step = 0;
      rt.atoms_pending = static_cast<int>(patches_.size());
      rt.fwd_pending = s_count;
      rt.bwd_pending = s_count;
      rt.recip_energy = 0.0;
      if (opts_.numeric) {
        rt.patch_pos.assign(patches_.size(), {});
        rt.planes.assign(pme_plan_->plane_points(s), {});
        rt.columns.assign(pme_plan_->column_points(s), {});
      }
    }
  }

  const double t0 = exec_->time();
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    PatchRt& pr = patches_[p];
    pr.step = 0;
    pr.contrib_received = 0;
    pr.arrival.clear();
    if (opts_.numeric) std::fill(pr.frc.begin(), pr.frc.end(), Vec3{});
    if (opts_.numeric && pme_plan_ != nullptr) {
      pr.pme_frc.assign(pme_slabs_.size(), {});
    }
    TaskMsg msg;
    msg.entry = e_advance_;
    msg.priority = -3;
    const int patch = static_cast<int>(p);
    msg.fn = [this, patch](ExecContext& c) { publish_coords(c, patch); };
    exec_->inject(patch_home_[p], std::move(msg), t0);
  }
  exec_->run();
  // The machine always drains, faults or not: messages to dead PEs are
  // discarded, retry timers abandon after max_attempts, and nothing blocks.
  assert(exec_->idle());
  global_steps_ += steps;

  if (proc_ != nullptr && proc_->last_run_failed()) {
    // A worker died mid-epoch: no state merged back, so there is nothing
    // meaningful to fold or migrate. Leave the zeroed progress counters in
    // place — run_cycle's recovery loop detects the incomplete cycle and
    // restores from the on-disk checkpoint, which rewinds everything this
    // attempt touched (global_steps_ included).
    return;
  }

  if (opts_.numeric) {
    // Fold the per-(compute, step) potential slots in compute-id order.
    // Assignment (not +=) keeps a fault-replayed cycle idempotent.
    potential_per_step_.resize(static_cast<std::size_t>(step_base_ + steps + 1),
                               EnergyTerms{});
    for (int s = 0; s <= steps; ++s) {
      EnergyTerms sum;
      for (std::size_t c = 0; c < computes_.size(); ++c) {
        sum += potential_scratch_[c * static_cast<std::size_t>(steps + 1) +
                                  static_cast<std::size_t>(s)];
      }
      if (pme_plan_ != nullptr) {
        // Reciprocal-sum partials (plus each slab's share of the self and
        // exclusion corrections) fold after the compute terms, in slab
        // order — the canonical position of PME in the energy sum.
        for (std::size_t sl = 0; sl < pme_slabs_.size(); ++sl) {
          sum.elec += pme_scratch_[sl * static_cast<std::size_t>(steps + 1) +
                                   static_cast<std::size_t>(s)];
        }
      }
      potential_per_step_[static_cast<std::size_t>(step_base_ + s)] = sum;
    }
    migrate_atoms();
  }
}

bool ParallelSim::last_cycle_complete() const {
  if (steps_done_counter_.empty()) return true;
  return steps_done_counter_.back() == active_patches_;
}

void ParallelSim::run_cycle(int steps) {
  assert(steps >= 1);
  const bool resilient = opts_.checkpoint_every > 0;
  if (resilient) {
    if (!have_checkpoint() ||
        static_cast<int>(cycles_since_ckpt_.size()) >= opts_.checkpoint_every) {
      take_checkpoint();
    }
    cycles_since_ckpt_.push_back(steps);
  }
  // A cycle has truly finished only when every patch completed every step
  // AND every reduction round landed. The two can diverge: a PE that dies
  // after its patches' final advance but before the reduction tree drained
  // through it leaves last_cycle_complete() true with the last round's
  // total silently missing (found by scalemd-fuzz; see EXPERIMENTS.md).
  const auto recovered = [this]() {
    return last_cycle_complete() &&
           reduction_totals_.size() == step_completion_.size();
  };
  attempt_cycle(steps);
  if (resilient && !recovered()) {
    // Work was lost (typically a PE failure mid-cycle). Restore the last
    // coordinated checkpoint, evacuate the dead PEs, and replay every cycle
    // recorded since the snapshot. A replayed cycle can itself be hit by a
    // later scheduled failure, so loop — with a cap so a hostile plan (all
    // PEs dying) terminates; an incomplete final cycle is then left for the
    // invariant layer to flag.
    constexpr int kMaxRestarts = 8;
    int tries = 0;
    while (!recovered() && tries < kMaxRestarts) {
      ++tries;
      restore_checkpoint();
      for (int cycle_steps : cycles_since_ckpt_) {
        attempt_cycle(cycle_steps);
        if (!recovered()) break;
      }
    }
  }
  if (cycle_observer_) cycle_observer_(*this, steps);
}

double ParallelSim::step_completion_at(int s) const {
  if (s < 0 || static_cast<std::size_t>(s) >= step_completion_.size()) return 0.0;
  return step_completion_[static_cast<std::size_t>(s)];
}

double ParallelSim::seconds_per_step_tail(int steps) const {
  // Clamp instead of asserting: callers probing before any cycle ran (or
  // asking for a longer tail than was recorded) get a defined 0.0 /
  // whole-history answer rather than UB.
  const std::size_t n = step_completion_.size();
  if (n < 2) return 0.0;
  std::size_t span = steps < 1 ? 1 : static_cast<std::size_t>(steps);
  span = std::min(span, n - 1);
  const double t1 = step_completion_[n - 1];
  const double t0 = step_completion_[n - 1 - span];
  return (t1 - t0) / static_cast<double>(span);
}

double ParallelSim::run_benchmark(int measure_steps, int timed_steps) {
  run_cycle(measure_steps);
  load_balance(/*refine_only=*/false);
  run_cycle(measure_steps);
  load_balance(/*refine_only=*/true);
  run_cycle(timed_steps);
  return seconds_per_step_tail(timed_steps);
}

// ---------------------------------------------------------------------------
// Failure evacuation (checkpoint/restart and the process wire: sim_state.cpp)
// ---------------------------------------------------------------------------

void ParallelSim::evacuate_failed_pes(const std::vector<int>& dead) {
  std::vector<char> is_dead(static_cast<std::size_t>(opts_.num_pes), 0);
  for (int pe : dead) is_dead[static_cast<std::size_t>(pe)] = 1;
  const std::vector<double> busy = exec_->busy_times();

  // 1. Re-home orphaned patches: prefer the live PE already running the
  //    most computes that read the patch (fewest new proxies), tie-break
  //    on lighter historical load, then PE id — deterministic.
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    if (!is_dead[static_cast<std::size_t>(patch_home_[p])]) continue;
    std::vector<int> affinity(static_cast<std::size_t>(opts_.num_pes), 0);
    for (std::size_t i = 0; i < computes_.size(); ++i) {
      const auto pe = static_cast<std::size_t>(compute_pe_[i]);
      if (is_dead[pe]) continue;
      for (int dep : computes_[i].deps) {
        if (dep == static_cast<int>(p)) ++affinity[pe];
      }
    }
    int best = -1;
    for (int pe = 0; pe < opts_.num_pes; ++pe) {
      const auto u = static_cast<std::size_t>(pe);
      if (is_dead[u]) continue;
      const bool better =
          best < 0 || affinity[u] > affinity[static_cast<std::size_t>(best)] ||
          (affinity[u] == affinity[static_cast<std::size_t>(best)] &&
           busy[u] < busy[static_cast<std::size_t>(best)]);
      if (better) best = pe;
    }
    assert(best >= 0 && "all PEs failed — nothing to evacuate onto");
    patch_home_[p] = best;
  }

  // 1b. PME slabs on dead PEs are re-homed round-robin over the survivors.
  //     Deterministic, and nothing moves with them: slab state is per-cycle
  //     transient and every replay rebuilds it from scratch.
  if (pme_plan_ != nullptr) {
    std::vector<int> live;
    for (int pe = 0; pe < opts_.num_pes; ++pe) {
      if (!is_dead[static_cast<std::size_t>(pe)]) live.push_back(pe);
    }
    for (std::size_t s = 0; s < slab_pe_.size(); ++s) {
      if (is_dead[static_cast<std::size_t>(slab_pe_[s])]) {
        slab_pe_[s] = live[s % live.size()];
      }
    }
  }

  // 2. Non-migratable computes are pinned to their base patch's home,
  //    which step 1 just guaranteed is live.
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (wl_->plan.migratable_index()[i] >= 0) continue;
    compute_pe_[i] = patch_home_[static_cast<std::size_t>(
        wl_->plan.computes()[i].base_patch)];
  }

  // 3. Migratable computes go through the LB evacuation strategy (greedy
  //    proxy-aware placement + refine over the survivors).
  std::vector<int> object_compute;
  const LbProblem problem = lb_problem(object_compute);
  const LbAssignment map = evacuate_map(problem, identity_map(problem), dead);
  int moved = 0;
  for (std::size_t j = 0; j < map.size(); ++j) {
    const auto i = static_cast<std::size_t>(object_compute[j]);
    if (compute_pe_[i] != map[j]) ++moved;
    compute_pe_[i] = map[j];
  }

  for (int pe : dead) {
    sinks_.on_fault({FaultKind::kEvacuation, pe, -1, exec_->time(),
                     static_cast<double>(moved)});
  }

  // Patch homes changed: the reduction tree spans different PEs now.
  rebuild_reducer();
  rebuild_dataflow();
}

// ---------------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------------

LbProblem ParallelSim::lb_problem(std::vector<int>& object_compute) const {
  LbProblem problem;
  problem.num_pes = opts_.num_pes;
  problem.patch_home = patch_home_;
  problem.background = db_->background();
  object_compute.clear();
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    const int mi = wl_->plan.migratable_index()[i];
    if (mi < 0) continue;
    LbObject o;
    o.load = db_->object_load(static_cast<std::uint32_t>(mi));
    o.current_pe = compute_pe_[i];
    o.patch_a = computes_[i].deps.empty() ? -1 : computes_[i].deps[0];
    o.patch_b = computes_[i].deps.size() > 1 ? computes_[i].deps[1] : -1;
    problem.objects.push_back(o);
    object_compute.push_back(static_cast<int>(i));
  }
  return problem;
}

void ParallelSim::load_balance(bool refine_only) {
  if (opts_.lb.kind == LbStrategyKind::kNone) {
    db_->reset();
    return;
  }

  // Graceful degradation: if PEs have failed, first make sure nothing is
  // homed on them (idempotent when already evacuated), and remember to
  // keep the strategy's output off them below. The DES machine fails PEs
  // per its fault plan, the process backend when a worker dies; the
  // threaded backend has none to report.
  const std::vector<int> dead = exec_->failed_pes();
  if (!dead.empty() &&
      static_cast<std::size_t>(dead.size()) < static_cast<std::size_t>(opts_.num_pes)) {
    evacuate_failed_pes(dead);
  }

  // Build the strategy input from the measurement database.
  std::vector<int> object_compute;
  LbProblem problem = lb_problem(object_compute);
  // PME slabs are ordinary migratable objects (patch-less: every strategy
  // treats patch_a = -1 as "no communication affinity"), priced from the
  // same measurement database via their task records. Dedicated-ranks mode
  // pins them instead. object_compute encodes slab s as -1 - s.
  if (pme_plan_ != nullptr && opts_.pme.dedicated_ranks <= 0) {
    for (int s = 0; s < pme_plan_->slabs(); ++s) {
      LbObject o;
      o.load = db_->object_load(static_cast<std::uint32_t>(
          wl_->plan.migratable_count() + s));
      o.current_pe = slab_pe_[static_cast<std::size_t>(s)];
      problem.objects.push_back(o);
      object_compute.push_back(-1 - s);
    }
  }

  LbAssignment map;
  switch (opts_.lb.kind) {
    case LbStrategyKind::kRandom:
      map = random_map(problem);
      break;
    case LbStrategyKind::kGreedyNoComm:
      map = greedy_nocomm_map(problem);
      break;
    case LbStrategyKind::kGreedy:
      map = greedy_comm_map(problem, opts_.lb.greedy_overload);
      break;
    case LbStrategyKind::kGreedyRefine:
      map = refine_only
                ? refine_map(problem, identity_map(problem), opts_.lb.refine_overload)
                : refine_map(problem, greedy_comm_map(problem, opts_.lb.greedy_overload),
                             opts_.lb.refine_overload);
      break;
    case LbStrategyKind::kDiffusion:
      map = diffusion_map(problem);
      break;
    case LbStrategyKind::kNone:
      return;
  }

  // The strategies are failure-blind; route anything they put on a dead PE
  // back onto the survivors.
  if (!dead.empty() &&
      static_cast<std::size_t>(dead.size()) < static_cast<std::size_t>(opts_.num_pes)) {
    map = evacuate_map(problem, map, dead, opts_.lb.refine_overload);
  }

  // Apply the new mapping; model each migration as a message carrying the
  // object's state from its old PE to its new one. The process backend
  // skips the modeled traffic (migration happens in the parent between
  // epochs; these bookkeeping messages have no wire form to cross workers).
  const double t0 = exec_->time();
  for (std::size_t j = 0; j < map.size(); ++j) {
    const int compute = object_compute[j];
    int old_pe;
    const int new_pe = map[j];
    if (compute < 0) {
      const auto slab = static_cast<std::size_t>(-1 - compute);
      old_pe = slab_pe_[slab];
      if (old_pe == new_pe) continue;
      slab_pe_[slab] = new_pe;
    } else {
      old_pe = compute_pe_[static_cast<std::size_t>(compute)];
      if (old_pe == new_pe) continue;
      compute_pe_[static_cast<std::size_t>(compute)] = new_pe;
    }
    if (proc_ != nullptr) continue;
    TaskMsg msg;
    msg.entry = e_migrate_;
    msg.fn = [this, new_pe](ExecContext& c) {
      TaskMsg arrive;
      arrive.entry = e_migrate_;
      arrive.bytes = 1024;
      arrive.fn = [](ExecContext& cc) { cc.charge(2e-6); };
      c.send(new_pe, std::move(arrive));
    };
    exec_->inject(old_pe, std::move(msg), t0);
  }
  if (proc_ == nullptr) exec_->run();
  rebuild_dataflow();
  db_->reset();
}

// ---------------------------------------------------------------------------
// Atom migration (numeric mode, cycle boundaries)
// ---------------------------------------------------------------------------

void ParallelSim::migrate_atoms() {
  const CellGrid& grid = wl_->decomp.grid();
  // Collect movers per source patch: (atom index, destination patch).
  std::vector<std::vector<std::pair<int, int>>> movers(patches_.size());
  bool any = false;
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    PatchRt& pr = patches_[p];
    for (std::size_t i = 0; i < pr.atoms.size(); ++i) {
      const int dst = grid.cell_of(pr.pos[i]);
      if (dst != static_cast<int>(p)) {
        movers[p].push_back({static_cast<int>(i), dst});
        any = true;
      }
    }
  }
  if (any) {
    // Apply moves: copy atom state to destinations, compact sources.
    std::map<std::pair<int, int>, int> traffic;  // (src pe, dst pe) -> atoms
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      if (movers[p].empty()) continue;
      PatchRt& src = patches_[p];
      std::vector<char> moved(src.atoms.size(), 0);
      for (const auto& [idx, dst] : movers[p]) {
        PatchRt& d = patches_[static_cast<std::size_t>(dst)];
        d.atoms.push_back(src.atoms[static_cast<std::size_t>(idx)]);
        d.pos.push_back(src.pos[static_cast<std::size_t>(idx)]);
        d.vel.push_back(src.vel[static_cast<std::size_t>(idx)]);
        d.mass.push_back(src.mass[static_cast<std::size_t>(idx)]);
        d.frc.push_back(src.frc[static_cast<std::size_t>(idx)]);
        moved[static_cast<std::size_t>(idx)] = 1;
        const int src_pe = patch_home_[p];
        const int dst_pe = patch_home_[static_cast<std::size_t>(dst)];
        if (src_pe != dst_pe) ++traffic[{src_pe, dst_pe}];
      }
      // Compact the source arrays.
      std::size_t w = 0;
      for (std::size_t i = 0; i < src.atoms.size(); ++i) {
        if (moved[i]) continue;
        src.atoms[w] = src.atoms[i];
        src.pos[w] = src.pos[i];
        src.vel[w] = src.vel[i];
        src.mass[w] = src.mass[i];
        src.frc[w] = src.frc[i];
        ++w;
      }
      src.atoms.resize(w);
      src.pos.resize(w);
      src.vel.resize(w);
      src.mass.resize(w);
      src.frc.resize(w);
    }
    // Refresh atom locations.
    for (std::size_t p = 0; p < patches_.size(); ++p) {
      for (std::size_t i = 0; i < patches_[p].atoms.size(); ++i) {
        atom_loc_[static_cast<std::size_t>(patches_[p].atoms[i])] = {
            static_cast<int>(p), static_cast<int>(i)};
      }
    }
    // Refresh bonded compute dependencies (term atoms may have changed
    // patches; self/pair computes reference patches directly).
    for (std::size_t i = 0; i < computes_.size(); ++i) {
      const ComputeDesc& desc = wl_->plan.computes()[i];
      if (is_nonbonded(desc.kind)) continue;
      std::vector<int> deps;
      auto add_dep = [&](int atom) {
        const int p = atom_loc_[static_cast<std::size_t>(atom)].first;
        if (std::find(deps.begin(), deps.end(), p) == deps.end()) deps.push_back(p);
      };
      for (int t : desc.terms) {
        switch (desc.kind) {
          case ComputeKind::kBonds: {
            const Bond& term = mol_->bonds()[static_cast<std::size_t>(t)];
            add_dep(term.a);
            add_dep(term.b);
            break;
          }
          case ComputeKind::kAngles: {
            const Angle& term = mol_->angles()[static_cast<std::size_t>(t)];
            add_dep(term.a);
            add_dep(term.b);
            add_dep(term.c);
            break;
          }
          case ComputeKind::kDihedrals: {
            const Dihedral& term = mol_->dihedrals()[static_cast<std::size_t>(t)];
            add_dep(term.a);
            add_dep(term.b);
            add_dep(term.c);
            add_dep(term.d);
            break;
          }
          default: {
            const Improper& term = mol_->impropers()[static_cast<std::size_t>(t)];
            add_dep(term.a);
            add_dep(term.b);
            add_dep(term.c);
            add_dep(term.d);
            break;
          }
        }
      }
      std::sort(deps.begin(), deps.end());
      computes_[i].deps = std::move(deps);
    }
    // Model the migration traffic: one batched message per (src, dst) PE
    // pair, sized by the number of atoms moved. Skipped under the process
    // backend (atoms move in the parent; the modeled messages have no wire
    // form to cross workers).
    if (proc_ == nullptr) {
      const double t0 = exec_->time();
      for (const auto& [edge, count] : traffic) {
        const auto [src_pe, dst_pe] = edge;
        const std::size_t bytes = 32 + 96 * static_cast<std::size_t>(count);
        TaskMsg msg;
        msg.entry = e_migrate_;
        msg.fn = [this, dst_pe = dst_pe, bytes](ExecContext& c) {
          TaskMsg arrive;
          arrive.entry = e_migrate_;
          arrive.bytes = bytes;
          arrive.fn = [bytes](ExecContext& cc) {
            cc.charge_pack(static_cast<double>(bytes) * cc.machine().unpack_byte_cost);
          };
          c.send(dst_pe, std::move(arrive));
        };
        exec_->inject(src_pe, std::move(msg), t0);
      }
      exec_->run();
    }
  }
  rebuild_dataflow();
}

// ---------------------------------------------------------------------------
// Results access
// ---------------------------------------------------------------------------

void ParallelSim::attach_sink(TraceSink* sink) { sinks_.add(sink); }

void ParallelSim::detach_sink(const TraceSink* sink) { sinks_.remove(sink); }

double ParallelSim::ideal_nonbonded_seconds() const {
  double s = 0.0;
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (is_nonbonded(wl_->plan.computes()[i].kind)) {
      s += work_cost(wl_->work.per_compute(i), opts_.machine);
    }
  }
  return s;
}

double ParallelSim::ideal_bonded_seconds() const {
  double s = 0.0;
  for (std::size_t i = 0; i < computes_.size(); ++i) {
    if (!is_nonbonded(wl_->plan.computes()[i].kind)) {
      s += work_cost(wl_->work.per_compute(i), opts_.machine);
    }
  }
  return s;
}

double ParallelSim::ideal_integration_seconds() const {
  return static_cast<double>(mol_->atom_count()) * opts_.machine.integrate_cost;
}

int ParallelSim::patch_count() const { return static_cast<int>(patches_.size()); }

int ParallelSim::proxy_count() const {
  int count = 0;
  for (const ProxyRt& p : proxies_) {
    count += p.pe != patch_home_[static_cast<std::size_t>(p.patch)];
  }
  return count;
}

int ParallelSim::max_proxies_per_patch() const {
  int best = 0;
  for (std::size_t p = 0; p < patches_.size(); ++p) {
    int count = 0;
    for (int id : patch_proxy_ids_[p]) {
      count += proxies_[static_cast<std::size_t>(id)].pe != patch_home_[p];
    }
    best = std::max(best, count);
  }
  return best;
}

std::vector<Vec3> ParallelSim::gather_positions() const {
  std::vector<Vec3> out(static_cast<std::size_t>(mol_->atom_count()));
  for (const PatchRt& p : patches_) {
    for (std::size_t i = 0; i < p.atoms.size(); ++i) {
      out[static_cast<std::size_t>(p.atoms[i])] = p.pos[i];
    }
  }
  return out;
}

std::vector<Vec3> ParallelSim::gather_velocities() const {
  std::vector<Vec3> out(static_cast<std::size_t>(mol_->atom_count()));
  for (const PatchRt& p : patches_) {
    for (std::size_t i = 0; i < p.atoms.size(); ++i) {
      out[static_cast<std::size_t>(p.atoms[i])] = p.vel[i];
    }
  }
  return out;
}

std::vector<Vec3> ParallelSim::gather_forces() const {
  std::vector<Vec3> out(static_cast<std::size_t>(mol_->atom_count()));
  for (const PatchRt& p : patches_) {
    for (std::size_t i = 0; i < p.atoms.size(); ++i) {
      out[static_cast<std::size_t>(p.atoms[i])] = p.frc[i];
    }
  }
  return out;
}

EnergyTerms ParallelSim::potential_terms_at_step(int s) const {
  if (s < 0 || static_cast<std::size_t>(s) >= potential_per_step_.size()) {
    return EnergyTerms{};
  }
  return potential_per_step_[static_cast<std::size_t>(s)];
}

double ParallelSim::potential_at_step(int s) const {
  return potential_terms_at_step(s).total();
}

}  // namespace scalemd
