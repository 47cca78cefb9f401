// The state codec (core/sim_state.cpp): export_state/import_state round
// trips, the defects the reader's validation closes, and a mutation fuzz
// plus every-prefix truncation over a PME run's blob. Every rejected blob
// must raise one named StateError and leave the sim byte-for-byte as it
// was (validate before apply). Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "check/golden.hpp"
#include "core/parallel_sim.hpp"

namespace scalemd {
namespace {

using Blob = std::vector<std::uint8_t>;

/// Byte offsets of the fields the defect cases corrupt, found by walking
/// the checkpoint layout EXPERIMENTS.md "Wire format" documents.
struct Layout {
  std::size_t atom_loc = 0;    ///< first atom_loc entry
  std::size_t first_dep = 0;   ///< first dependency of the first compute with one
  std::size_t patch_home = 0;  ///< first patch_home entry
  std::size_t slab_pe = 0;     ///< first slab_pe entry
};

std::uint64_t u64_at(const Blob& b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b.at(off + i)) << (8 * i);
  }
  return v;
}

void put_i64(Blob& b, std::size_t off, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    b.at(off + i) =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
  }
}

Layout walk(const Blob& b) {
  Layout l;
  std::size_t off = 8;  // snapshot time
  const std::uint64_t patches = u64_at(b, off);
  off += 8;
  for (std::uint64_t p = 0; p < patches; ++p) {
    const std::uint64_t n = u64_at(b, off);
    // count, atom ids, masses, pos/vel/frc, step
    off += 8 + n * 8 + n * 8 + 3 * n * 24 + 8;
  }
  const std::uint64_t atoms = u64_at(b, off);
  l.atom_loc = off + 8;
  off += 8 + atoms * 16;
  const std::uint64_t computes = u64_at(b, off);
  off += 8;
  for (std::uint64_t c = 0; c < computes; ++c) {
    const std::uint64_t nd = u64_at(b, off);
    if (l.first_dep == 0 && nd > 0) l.first_dep = off + 8;
    off += 8 + nd * 8;
  }
  l.patch_home = off + 8;
  off += 8 + patches * 8;
  off += 8 + u64_at(b, off) * 8;   // compute_pe
  off += 8 + u64_at(b, off) * 8;   // reduction totals
  off += 8 + u64_at(b, off) * 48;  // potential per step
  off += 8 + u64_at(b, off) * 8;   // step completion
  off += 8 + u64_at(b, off) * 8;   // step last advance
  off += 8 + u64_at(b, off) * 8;   // steps done counter
  off += 8 + 4 * 8 + 8 + 1 + 8;    // global steps, noise rng
  l.slab_pe = off + 8;
  return l;
}

/// A 4-PE numeric run of the charged water box with PME on (so slab
/// placement is in the blob), load balanced, with two cycles of history.
class SimStateTest : public ::testing::Test {
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

  static ParallelOptions options() {
    ParallelOptions o;
    o.num_pes = 4;
    o.numeric = true;
    o.lb.kind = LbStrategyKind::kGreedyRefine;
    return o;
  }

  static std::unique_ptr<ParallelSim> run_sim() {
    auto sim = std::make_unique<ParallelSim>(*workload_, options());
    sim->run_cycle(2);
    sim->load_balance();
    sim->run_cycle(2);
    return sim;
  }

  /// Imports `bad`, which must be rejected with `want`, leaving `sim`
  /// exporting exactly `before`.
  static void expect_rejected(ParallelSim& sim, const Blob& before, const Blob& bad,
                              StateError want) {
    try {
      sim.import_state(bad);
      ADD_FAILURE() << "blob accepted; wanted " << state_error_name(want);
    } catch (const StateDecodeError& e) {
      EXPECT_EQ(e.error(), want) << e.what();
    }
    EXPECT_EQ(sim.export_state(), before);
  }

  static Molecule* mol_;
  static Workload* workload_;
};

Molecule* SimStateTest::mol_ = nullptr;
Workload* SimStateTest::workload_ = nullptr;

TEST_F(SimStateTest, ExportImportExportIsByteIdentical) {
  auto sim = run_sim();
  ASSERT_TRUE(sim->pme_enabled());
  const Blob blob = sim->export_state();
  sim->import_state(blob);
  EXPECT_EQ(sim->export_state(), blob);
}

// Frozen (cost-only) mode keeps no per-atom arrays, so its checkpoint holds
// atom ids, placement and progress only. A PE failure must still restore
// from it, evacuate and finish the run.
TEST_F(SimStateTest, FrozenModeCheckpointRestoresAfterPeFailure) {
  ParallelOptions o = options();
  o.numeric = false;
  ParallelSim clean(*workload_, o);
  for (int c = 0; c < 3; ++c) clean.run_cycle(2);
  o.checkpoint_every = 1;
  o.fault.failures.push_back({.pe = 2, .at_time = clean.sim().time() * 0.5});
  ParallelSim sim(*workload_, o);
  for (int c = 0; c < 3; ++c) sim.run_cycle(2);
  EXPECT_TRUE(sim.last_cycle_complete());
  EXPECT_GE(sim.restarts(), 1);
}

// A decoded compute dependency >= the patch count used to index
// patch_proxy_ids_ unchecked in rebuild_dataflow.
TEST_F(SimStateTest, DependencyOutOfRangeIsRejected) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  Blob bad = blob;
  put_i64(bad, walk(blob).first_dep, sim->patch_count());
  expect_rejected(*sim, blob, bad, StateError::kDepOutOfRange);
}

// A decoded patch_home >= num_pes used to index bytes_on_pe unchecked in
// take_checkpoint.
TEST_F(SimStateTest, PlacementPeOutOfRangeIsRejected) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  const Layout l = walk(blob);
  Blob bad = blob;
  put_i64(bad, l.patch_home, sim->options().num_pes);
  expect_rejected(*sim, blob, bad, StateError::kPeOutOfRange);
  bad = blob;
  put_i64(bad, l.slab_pe, -1);
  expect_rejected(*sim, blob, bad, StateError::kPeOutOfRange);
}

TEST_F(SimStateTest, AtomLocDisagreeingWithAtomListsIsRejected) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  const Layout l = walk(blob);
  Blob bad = blob;
  // Swap the slots of atoms 0 and 1: both still name real slots, but not
  // the ones holding them.
  std::swap_ranges(bad.begin() + static_cast<std::ptrdiff_t>(l.atom_loc),
                   bad.begin() + static_cast<std::ptrdiff_t>(l.atom_loc + 16),
                   bad.begin() + static_cast<std::ptrdiff_t>(l.atom_loc + 16));
  expect_rejected(*sim, blob, bad, StateError::kAtomLocMismatch);
}

TEST_F(SimStateTest, TrailingBytesAndForeignBlobsAreRejected) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  Blob bad = blob;
  bad.push_back(0);
  expect_rejected(*sim, blob, bad, StateError::kTrailingBytes);

  // A blob from another system: its atom count differs from this sim's.
  const GoldenSpec* spec = find_golden_spec("chain");
  ASSERT_NE(spec, nullptr);
  const Molecule other_mol = spec->make();
  const Workload other(other_mol, MachineModel::asci_red(), spec->engine.nonbonded);
  ParallelOptions o;
  o.num_pes = 4;
  o.numeric = true;
  ParallelSim other_sim(other, o);
  ASSERT_NE(other_mol.atom_count(), mol_->atom_count());
  expect_rejected(*sim, blob, other_sim.export_state(), StateError::kCountMismatch);
}

TEST_F(SimStateTest, EveryTruncationPrefixIsRejectedUnchanged) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Blob prefix(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      sim->import_state(prefix);
      ADD_FAILURE() << "prefix of " << len << " bytes accepted";
    } catch (const StateDecodeError& e) {
      ASSERT_EQ(e.error(), StateError::kTruncated) << "prefix " << len;
    }
    ASSERT_EQ(sim->export_state(), blob) << "prefix " << len << " changed the sim";
  }
}

// 2000 random mutations: byte flips, small integers written over aligned
// words (counts, ids, PEs), inserted and deleted bytes. A mutant is either
// rejected with a named error and no state change, or accepted — and then
// the decoder kept exactly what it read: the sim re-exports the mutant.
TEST_F(SimStateTest, MutationFuzzGivesNamedErrorsAndNoPartialApply) {
  auto sim = run_sim();
  const Blob blob = sim->export_state();
  std::mt19937_64 rng(0x5EED5u);
  std::set<StateError> seen;
  int rejected = 0;
  for (int it = 0; it < 2000; ++it) {
    Blob m = blob;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < edits; ++k) {
      // Mutations avoid the snapshot time (bytes 0..7): export rewrites it.
      const std::size_t pos = 8 + rng() % (m.size() - 8);
      switch (rng() % 4) {
        case 0:
          m[pos] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
          break;
        case 1:
          put_i64(m, std::min(8 + (pos - 8) / 8 * 8, m.size() - 8),
                  static_cast<std::int64_t>(rng() % 80) - 8);
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
    try {
      sim->import_state(m);
    } catch (const StateDecodeError& e) {
      ++rejected;
      seen.insert(e.error());
      ASSERT_STREQ(e.what(), state_error_name(e.error()));
      ASSERT_EQ(sim->export_state(), blob) << "iteration " << it;
      continue;
    }
    const Blob again = sim->export_state();
    ASSERT_EQ(again.size(), m.size()) << "iteration " << it;
    ASSERT_TRUE(std::equal(again.begin() + 8, again.end(), m.begin() + 8))
        << "iteration " << it;
    sim->import_state(blob);
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_GE(seen.size(), 5u);
}

}  // namespace
}  // namespace scalemd
