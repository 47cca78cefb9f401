#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ff/nonbonded.hpp"

namespace scalemd {

// ---------------------------------------------------------------------------
// Tiled SoA non-bonded kernel.
//
// The scalar kernel in ff/nonbonded.cpp walks AoS Vec3 arrays and performs
// two binary searches per in-cutoff pair to classify exclusions. This file
// implements the layout GROMACS-style cluster kernels use instead: positions,
// charges and LJ parameters are gathered once per invocation into contiguous
// per-set SoA tiles, exclusion/1-4 classification is precomputed once per
// tile build into per-row bitmasks, and the i x j inner loop is branch-free
// (no early exits; excluded and out-of-cutoff pairs are multiplied by zero)
// so the compiler can vectorize it. Forces accumulate into local SoA buffers
// and are scattered back at the end.
//
// Every entry point matches its scalar counterpart's forces and energies to
// summation-order rounding and reproduces WorkCounters *exactly* — the DES
// cost model and grain-size histograms depend on those counts.
// ---------------------------------------------------------------------------

/// Epoch-stamped global->local index map used while translating per-atom
/// exclusion lists (global atom ids) into tile-local bit positions. Clearing
/// is O(1): bump the epoch instead of wiping the arrays.
class GlobalLocalMap {
 public:
  /// Starts a new mapping over `atom_count` global ids.
  void begin(int atom_count);
  void set(int global, int local) {
    const auto g = static_cast<std::size_t>(global);
    loc_[g] = local;
    stamp_[g] = epoch_;
  }
  /// Local index of `global` in the current epoch, or -1.
  int find(int global) const {
    const auto g = static_cast<std::size_t>(global);
    return stamp_[g] == epoch_ ? loc_[g] : -1;
  }

 private:
  std::vector<int> loc_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// One atom set gathered into SoA arrays: coordinates, charge, LJ type and
/// the per-atom row pointer into the mixed LJ pair table.
struct TileSoA {
  std::size_t n = 0;
  std::vector<double> x, y, z, q;
  std::vector<int> type;
  std::vector<int> global;

  void gather(const NonbondedContext& ctx, std::span<const int> idx,
              std::span<const Vec3> pos);
};

/// Per-row scratch for the filtered two-pass inner loop: full-width distance
/// buffers plus packed SoA arrays holding only the pairs that survive the
/// cutoff/exclusion filter (the expensive math runs on those alone, as a
/// branch-free elementwise map the compiler vectorizes).
struct RowScratch {
  std::vector<double> rr;  // full partner width: squared distances
  std::vector<int> pj;     // packed: surviving partner index
  std::vector<double> pdx, pdy, pdz, pr2, pqj, plja, pljb, pscale;
  std::vector<double> pfx, pfy, pfz, pelj, peel;  // packed outputs

  void ensure(std::size_t n);
};

/// Gathered tiles plus per-row exclusion bitmasks for one kernel invocation:
/// either a self set (all i < j pairs) or an ordered (a, b) set pair. Bit j
/// of full/mod row i marks atom pair (i, j) as fully excluded / 1-4 scaled.
/// Masks depend only on set membership, so they are built once per tile
/// build (i.e. once per cell sweep or pairlist build), replacing the scalar
/// kernel's per-pair binary searches with a branch-free mask lookup.
class TilePair {
 public:
  void build_self(const NonbondedContext& ctx, std::span<const int> idx,
                  std::span<const Vec3> pos, GlobalLocalMap& map);
  void build_ab(const NonbondedContext& ctx, std::span<const int> idx_a,
                std::span<const Vec3> pos_a, std::span<const int> idx_b,
                std::span<const Vec3> pos_b, GlobalLocalMap& map);

  bool self() const { return self_; }
  const TileSoA& a() const { return a_; }
  const TileSoA& b() const { return self_ ? a_ : b_; }

  /// Evaluates outer rows [i0, i1) against the partner set (j > i for self
  /// pairs, the full b set otherwise). Forces accumulate into the SoA
  /// buffers fa*/fb* (pass the same pointers for both in self mode); energy
  /// is returned and work counters are updated to match the scalar kernel
  /// exactly.
  EnergyTerms eval_rows(const NonbondedContext& ctx, std::size_t i0, std::size_t i1,
                        double* fax, double* fay, double* faz, double* fbx,
                        double* fby, double* fbz, RowScratch& rs,
                        WorkCounters& work) const;

 private:
  void build_masks(const NonbondedContext& ctx, GlobalLocalMap& map);

  TileSoA a_, b_;
  bool self_ = false;
  std::size_t words_ = 0;  ///< 64-bit words per mask row
  std::vector<std::uint64_t> full_, mod_;
  std::vector<std::uint8_t> row_masked_;  ///< row i has any exclusion bits
};

/// Reusable scratch for the single-threaded tiled entry points: tiles, the
/// global->local scratch map, SoA force accumulators and neighbor-gather
/// buffers. Create one per evaluation thread and reuse it across calls to
/// amortize allocations.
struct TiledWorkspace {
  TilePair pair;
  GlobalLocalMap map;
  RowScratch row;
  std::vector<double> fax, fay, faz, fbx, fby, fbz;
};

// --- drop-in tiled counterparts of the scalar entry points -----------------

EnergyTerms nonbonded_self_tiled(const NonbondedContext& ctx, std::span<const int> idx,
                                 std::span<const Vec3> pos, std::span<Vec3> f,
                                 WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_self_range_tiled(const NonbondedContext& ctx,
                                       std::span<const int> idx,
                                       std::span<const Vec3> pos, std::span<Vec3> f,
                                       std::size_t i_begin, std::size_t i_end,
                                       WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_ab_tiled(const NonbondedContext& ctx, std::span<const int> idx_a,
                               std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                               std::span<const int> idx_b,
                               std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                               WorkCounters& work, TiledWorkspace& ws);

EnergyTerms nonbonded_ab_range_tiled(const NonbondedContext& ctx,
                                     std::span<const int> idx_a,
                                     std::span<const Vec3> pos_a, std::span<Vec3> f_a,
                                     std::span<const int> idx_b,
                                     std::span<const Vec3> pos_b, std::span<Vec3> f_b,
                                     std::size_t a_begin, std::size_t a_end,
                                     WorkCounters& work, TiledWorkspace& ws);

// --- pairlist (Verlet) path -------------------------------------------------

/// Evaluates atom `gi` against its cached neighbor list. `codes` classifies
/// each neighbor (0 = plain, 1 = fully excluded, 2 = 1-4 scaled) and is
/// precomputed once per pairlist build — see ExclusionKind for the values.
/// Neighbor coordinates are gathered into SoA scratch and the inner loop is
/// the same branch-free body as the tile kernel. Forces accumulate into the
/// global-indexed span `f`.
EnergyTerms nonbonded_neighbors_tiled(const NonbondedContext& ctx, int gi,
                                      std::span<const Vec3> pos,
                                      std::span<const int> nbrs,
                                      std::span<const std::uint8_t> codes,
                                      std::span<Vec3> f, WorkCounters& work,
                                      TiledWorkspace& ws);

// --- option helpers ---------------------------------------------------------

/// "scalar", "tiled" or "tiled+threads".
const char* kernel_name(NonbondedKernel k);

/// Parses a kernel name (accepts "tiled+threads" and "tiled-threads").
/// Returns false and leaves `out` untouched on unknown names.
bool kernel_from_name(std::string_view name, NonbondedKernel& out);

}  // namespace scalemd
