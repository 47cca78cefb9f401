// The message codec: every runtime message that can cross a worker, the
// process backend's task frame around it, and the worker stats frame, fed
// to the decode entries the worker and the supervisor use
// (ProcessBackend::decode_task, ProcessBackend::decode_worker_stats). Every
// payload decodes and re-encodes to itself, every proper prefix is rejected
// as truncated, and each of 2000 random mutants is either rejected with a
// named error or accepted as a frame that re-encodes to exactly the mutant.
// Also the defect cases the decoders' validation closes: a reduction
// message naming a tree rank or round the reducer does not have, and a
// stats frame naming a PE or entry the supervisor does not have. Run under
// ASan/UBSan and TSan in CI (label unit).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.hpp"
#include "core/parallel_sim.hpp"
#include "ewald/full_elec.hpp"
#include "ewald/pme_slab.hpp"
#include "rts/codec.hpp"
#include "rts/process_backend.hpp"

namespace scalemd {
namespace {

using Blob = std::vector<std::uint8_t>;
using Body = std::function<void(StateWriter&)>;

void put_i64(Blob& b, std::size_t off, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.at(off + i) =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}

/// One random edit of the kinds the state-codec fuzz uses: a bit flip, a
/// small integer over an aligned word (ids, counts, PEs, rounds), an
/// inserted byte or a deleted byte.
void mutate(Blob& m, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < edits && !m.empty(); ++k) {
    const std::size_t pos = rng() % m.size();
    switch (rng() % 4) {
      case 0:
        m[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:
        if (m.size() >= 8) {
          put_i64(m, std::min(pos / 8 * 8, m.size() - 8),
                  static_cast<std::int64_t>(rng() % 80) - 8);
        }
        break;
      case 2:
        m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos),
                 static_cast<std::uint8_t>(rng()));
        break;
      default:
        m.erase(m.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
    }
  }
}

/// Runs `decode` on `p`: the named error of a rejection, or nullopt for an
/// accepted payload, which `reencode` must reproduce exactly.
template <class Decoded>
std::optional<StateError> decode_checked(
    const Blob& p, const std::function<Decoded(const Blob&)>& decode,
    const std::function<Blob(const Decoded&)>& reencode) {
  try {
    const Decoded d = decode(p);
    EXPECT_EQ(reencode(d), p);
    return std::nullopt;
  } catch (const StateDecodeError& e) {
    EXPECT_STREQ(e.what(), state_error_name(e.error()));
    return e.error();
  }
}

/// Every proper prefix truncated, then 2000 mutants each either rejected
/// with a named error or accepted and re-encoded to themselves.
template <class Decoded>
void sweep_and_fuzz(const Blob& seed, std::uint64_t rng_seed,
                    const std::function<Decoded(const Blob&)>& decode,
                    const std::function<Blob(const Decoded&)>& reencode) {
  ASSERT_EQ(decode_checked(seed, decode, reencode), std::nullopt);
  for (std::size_t n = 0; n < seed.size(); ++n) {
    const Blob prefix(seed.begin(), seed.begin() + static_cast<std::ptrdiff_t>(n));
    ASSERT_EQ(decode_checked(prefix, decode, reencode), StateError::kTruncated)
        << "prefix " << n;
  }
  std::mt19937_64 rng(rng_seed);
  std::set<StateError> seen;
  int rejected = 0;
  int accepted = 0;
  for (int it = 0; it < 2000; ++it) {
    Blob m = seed;
    mutate(m, rng);
    const auto err = decode_checked(m, decode, reencode);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "iteration " << it;
    if (err) {
      ++rejected;
      seen.insert(*err);
    } else {
      ++accepted;
    }
  }
  EXPECT_GT(rejected, 500);
  EXPECT_GT(accepted, 0);
  EXPECT_GE(seen.size(), 3u);
}

/// A 4-PE, 2-worker process-backend sim of the charged water box with PME
/// on, so all seven message kinds have decoders. It is never run: the
/// tests decode into it as a receiving worker would.
class MessageCodecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const GoldenSpec* spec = find_golden_spec("waterbox_ions");
    ASSERT_NE(spec, nullptr);
    mol_ = new Molecule(spec->make());
    workload_ = new Workload(*mol_, MachineModel::asci_red(), spec->engine.nonbonded);
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete mol_;
    workload_ = nullptr;
    mol_ = nullptr;
  }

  void SetUp() override {
    ParallelOptions o;
    o.num_pes = 4;
    o.numeric = true;
    o.backend = BackendKind::kProcess;
    o.process.workers = 2;
    sim_ = std::make_unique<ParallelSim>(*workload_, o);
    ASSERT_TRUE(sim_->pme_enabled());
    proc_ = dynamic_cast<ProcessBackend*>(&sim_->backend());
    ASSERT_NE(proc_, nullptr);
  }

  EntryId entry(const std::string& name) const {
    const EntryRegistry& reg = proc_->entries();
    for (EntryId e = 0; e < reg.count(); ++e) {
      if (reg.name(e) == name) return e;
    }
    ADD_FAILURE() << "no entry " << name;
    return -1;
  }

  static std::size_t natoms(int patch) {
    return workload_->decomp.patch_atoms()[static_cast<std::size_t>(patch)].size();
  }

  /// `n` distinct positions/forces.
  static void vecs(StateWriter& w, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      w.f64(0.5 + static_cast<double>(i));
      w.f64(-1.25 * static_cast<double>(i));
      w.f64(1e-3 * static_cast<double>(i));
    }
  }

  /// The kTask payload of a send from PE 0 to PE 1 (the other worker).
  Blob task(const std::string& name, const Body& body) const {
    RoutedTask t;
    t.dest_pe = 1;
    t.src_pe = 0;
    t.sent_at = 0.5;
    t.msg.entry = entry(name);
    t.msg.object = 3;
    t.msg.priority = -1;
    t.msg.bytes = 96;
    t.msg.wire = encode_fields(body);
    return proc_->encode_task(t);
  }

  /// One valid payload per message kind, written field by field from the
  /// layouts in EXPERIMENTS.md "Wire format".
  std::vector<std::pair<std::string, Blob>> seeds() const {
    std::vector<std::pair<std::string, Blob>> out;
    out.push_back({"coords", task("Proxy::recvCoordinates", [](StateWriter& w) {
                     w.i32(0);  // patch
                     w.i32(0);  // step
                     vecs(w, natoms(0));
                   })});

    // Proxy 0 is the first dataflow proxy: compute 0's first patch on
    // compute 0's PE, with one scratch slot per compute there reading it.
    const auto& computes = workload_->plan.computes();
    const int patch = computes[0].patches[0];
    const int pe = sim_->compute_pe()[0];
    std::size_t slots = 0;
    for (std::size_t i = 0; i < computes.size(); ++i) {
      for (int p : computes[i].patches) {
        slots += sim_->compute_pe()[i] == pe && p == patch;
      }
    }
    out.push_back({"forces", task("Patch::recvForces", [=](StateWriter& w) {
                     w.i32(patch);
                     w.i32(0);  // proxy
                     vecs(w, slots * natoms(patch));
                   })});

    out.push_back({"reduction", task("Reduction::combine", [](StateWriter& w) {
                     w.i32(0);  // rank: the root gathers from its children
                     w.i32(0);  // round
                     w.u64(1);  // parts
                     w.i32(0);  // contributor id
                     w.f64(1.25);
                   })});
    out.push_back({"pme-atoms", task("PmeSlab::recvAtoms", [](StateWriter& w) {
                     w.i32(0);  // slab
                     w.i32(0);  // patch
                     w.i32(0);  // step
                     vecs(w, natoms(0));
                   })});

    const PmeSlabPlan plan(mol_->box, to_pme_options(workload_->nonbonded.full_elec),
                           sim_->options().pme.slabs);
    const auto block = [](std::size_t n) {
      return [n](StateWriter& w) {
        w.i32(1);  // dst
        w.i32(0);  // src
        for (std::size_t i = 0; i < n; ++i) w.f64(0.25 * static_cast<double>(i));
      };
    };
    out.push_back({"pme-fwd", task("PmeSlab::recvTransposeFwd", block(plan.block_doubles(0, 1)))});
    out.push_back({"pme-bwd", task("PmeSlab::recvTransposeBwd", block(plan.block_doubles(1, 0)))});
    out.push_back({"pme-force", task("Patch::recvPmeForces", [](StateWriter& w) {
                     w.i32(0);  // patch
                     w.i32(0);  // slab
                     vecs(w, natoms(0));
                   })});
    return out;
  }

  std::optional<StateError> decode(const Blob& p) const {
    return decode_checked<RoutedTask>(
        p, [this](const Blob& b) { return proc_->decode_task(b, /*echo=*/true); },
        [this](const RoutedTask& t) { return proc_->encode_task(t); });
  }

  static Molecule* mol_;
  static Workload* workload_;
  std::unique_ptr<ParallelSim> sim_;
  ProcessBackend* proc_ = nullptr;
};

Molecule* MessageCodecTest::mol_ = nullptr;
Workload* MessageCodecTest::workload_ = nullptr;

TEST_F(MessageCodecTest, EveryMessageKindDecodesAndReencodes) {
  const auto all = seeds();
  ASSERT_EQ(all.size(), 7u);
  for (const auto& [kind, payload] : all) {
    SCOPED_TRACE(kind);
    EXPECT_EQ(decode(payload), std::nullopt);
    const RoutedTask t = proc_->decode_task(payload);
    EXPECT_EQ(t.dest_pe, 1);
    EXPECT_EQ(t.src_pe, 0);
    EXPECT_EQ(t.sent_at, 0.5);
    EXPECT_EQ(t.msg.priority, -1);
    EXPECT_EQ(t.msg.bytes, 96u);
    EXPECT_TRUE(static_cast<bool>(t.msg.fn));
    EXPECT_TRUE(t.msg.wire.empty());  // no echo asked for
  }
}

TEST_F(MessageCodecTest, EveryMessageKindSurvivesTruncationAndMutationFuzz) {
  std::uint64_t seed = 0xC0DEC;
  for (const auto& [kind, payload] : seeds()) {
    SCOPED_TRACE(kind);
    sweep_and_fuzz<RoutedTask>(
        payload, seed++,
        [this](const Blob& b) { return proc_->decode_task(b, /*echo=*/true); },
        [this](const RoutedTask& t) { return proc_->encode_task(t); });
  }
}

// Before the reduction message had a field list, its decoder handed the
// rank and round to the reducer unchecked: a bad rank indexed the tree's
// per-rank tables out of range, and a negative round at the root resized
// the totals to ~2^64 entries.
TEST_F(MessageCodecTest, ReductionMessageOutsideTheTreeOrCycleIsRejected) {
  const auto reduction = [this](int rank, int round, std::uint64_t n, int id) {
    return task("Reduction::combine", [=](StateWriter& w) {
      w.i32(rank);
      w.i32(round);
      w.u64(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        w.i32(id);
        w.f64(2.0);
      }
    });
  };
  EXPECT_EQ(decode(reduction(0, 0, 1, 0)), std::nullopt);
  EXPECT_EQ(decode(reduction(4, 0, 1, 0)), StateError::kIndexOutOfRange);
  EXPECT_EQ(decode(reduction(-1, 0, 1, 0)), StateError::kIndexOutOfRange);
  EXPECT_EQ(decode(reduction(0, -5, 1, 0)), StateError::kRoundOutOfRange);
  EXPECT_EQ(decode(reduction(0, 1, 1, 0)), StateError::kRoundOutOfRange);
  EXPECT_EQ(decode(reduction(0, 0, 0, 0)), StateError::kCountMismatch);
  EXPECT_EQ(decode(reduction(0, 0, 1, sim_->patch_count())),
            StateError::kIndexOutOfRange);
  EXPECT_EQ(decode(reduction(0, 0, 1, -1)), StateError::kIndexOutOfRange);
}

TEST_F(MessageCodecTest, TaskHeaderAndIdsAreValidated) {
  const Blob coords = seeds().front().second;
  Blob bad = coords;
  put_i64(bad, 0, 4);  // dest PE
  EXPECT_EQ(decode(bad), StateError::kPeOutOfRange);
  bad = coords;
  put_i64(bad, 8, -1);  // src PE
  EXPECT_EQ(decode(bad), StateError::kPeOutOfRange);
  bad = coords;
  put_i64(bad, 16, entry("Patch::integrate"));  // an entry with no decoder
  EXPECT_EQ(decode(bad), StateError::kEntryOutOfRange);
  bad = coords;
  put_i64(bad, 16, 1 << 20);
  EXPECT_EQ(decode(bad), StateError::kEntryOutOfRange);
  bad = coords;
  put_i64(bad, 32, std::int64_t{1} << 40);  // priority outside int
  EXPECT_EQ(decode(bad), StateError::kBadInt);
  bad = coords;
  bad.push_back(0);
  EXPECT_EQ(decode(bad), StateError::kTrailingBytes);

  constexpr std::size_t kBody = 7 * 8;  // the header's seven fields
  bad = coords;
  put_i64(bad, kBody, sim_->patch_count());  // coords patch id
  EXPECT_EQ(decode(bad), StateError::kIndexOutOfRange);
  bad = coords;
  put_i64(bad, kBody + 8, 1);  // a step past the (empty) running cycle
  EXPECT_EQ(decode(bad), StateError::kRoundOutOfRange);

  const Blob forces = seeds()[1].second;
  bad = forces;
  put_i64(bad, kBody + 8, 1 << 20);  // proxy id
  EXPECT_EQ(decode(bad), StateError::kIndexOutOfRange);
  bad = forces;
  const int other = workload_->plan.computes()[0].patches[0] == 0 ? 1 : 0;
  put_i64(bad, kBody, other);  // a patch proxy 0 does not serve
  EXPECT_EQ(decode(bad), StateError::kIndexOutOfRange);

  const Blob fwd = seeds()[4].second;
  bad = fwd;
  put_i64(bad, kBody, 4);  // dst slab
  EXPECT_EQ(decode(bad), StateError::kIndexOutOfRange);
  bad = fwd;
  bad.resize(bad.size() - 8);  // one double short
  EXPECT_EQ(decode(bad), StateError::kTruncated);
}

// ---------------------------------------------------------------------------
// The worker stats frame
// ---------------------------------------------------------------------------

class WorkerStatsCodecTest : public ::testing::Test {
 protected:
  WorkerStatsCodecTest() : b_(4, MachineModel::asci_red(), opts()) {
    b_.entries().add("test.a", WorkCategory::kOther);
    b_.entries().add("test.b", WorkCategory::kComm);
  }

  static ProcessOptions opts() {
    ProcessOptions po;
    po.workers = 2;
    return po;
  }

  /// Worker 1's report: it owns PEs 1 and 3.
  static WorkerStats stats() {
    WorkerStats s;
    s.offered = 5;
    s.executed = 4;
    s.busy = {0.25, 0.5};
    s.tasks = {{1, 0, 7, 0.1, 0.2}, {3, 1, 0, 0.3, 0.05}};
    s.msgs = {{1, 3, 1, 64, 0.1, 0.15}, {3, 0, 0, 32, 0.2, 0.4}};
    s.app = {1, 2, 3};
    return s;
  }

  std::optional<StateError> decode(const WorkerStats& s) const {
    const Blob p = b_.encode_worker_stats(1, s);
    return decode_checked<WorkerStats>(
        p, [this](const Blob& x) { return b_.decode_worker_stats(1, x); },
        [this](const WorkerStats& x) { return b_.encode_worker_stats(1, x); });
  }

  ProcessBackend b_;
};

// Before the stats frame had a validating reader, the supervisor forwarded
// each record to the sinks as it decoded it: an out-of-range PE became an
// out-of-bounds write in LoadDatabase and SummaryProfile, and a huge entry
// id an unbounded resize.
TEST_F(WorkerStatsCodecTest, RecordsNamingUnknownPesOrEntriesAreRejected) {
  EXPECT_EQ(decode(stats()), std::nullopt);
  WorkerStats s = stats();
  s.tasks[1].pe = 4;
  EXPECT_EQ(decode(s), StateError::kPeOutOfRange);
  s = stats();
  s.tasks[0].pe = -1;
  EXPECT_EQ(decode(s), StateError::kPeOutOfRange);
  s = stats();
  s.tasks[0].entry = 1 << 30;
  EXPECT_EQ(decode(s), StateError::kEntryOutOfRange);
  s = stats();
  s.msgs[0].dst_pe = 9;
  EXPECT_EQ(decode(s), StateError::kPeOutOfRange);
  s = stats();
  s.msgs[1].entry = 2;
  EXPECT_EQ(decode(s), StateError::kEntryOutOfRange);
}

TEST_F(WorkerStatsCodecTest, DecodedFrameIsTheReport) {
  const WorkerStats s = b_.decode_worker_stats(1, b_.encode_worker_stats(1, stats()));
  EXPECT_EQ(s.offered, 5u);
  EXPECT_EQ(s.executed, 4u);
  EXPECT_EQ(s.busy, (std::vector<double>{0.25, 0.5}));
  ASSERT_EQ(s.tasks.size(), 2u);
  EXPECT_EQ(s.tasks[1].pe, 3);
  EXPECT_EQ(s.tasks[0].object, 7u);
  ASSERT_EQ(s.msgs.size(), 2u);
  EXPECT_EQ(s.msgs[0].bytes, 64u);
  EXPECT_EQ(s.msgs[1].recv_time, 0.4);
  EXPECT_EQ(s.app, (Blob{1, 2, 3}));
}

TEST_F(WorkerStatsCodecTest, SurvivesTruncationAndMutationFuzz) {
  sweep_and_fuzz<WorkerStats>(
      b_.encode_worker_stats(1, stats()), 0x57A75,
      [this](const Blob& x) { return b_.decode_worker_stats(1, x); },
      [this](const WorkerStats& x) { return b_.encode_worker_stats(1, x); });
}

}  // namespace
}  // namespace scalemd
