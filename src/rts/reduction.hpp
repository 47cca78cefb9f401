#pragma once

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rts/codec.hpp"
#include "rts/exec_backend.hpp"

namespace scalemd {

class ReliableComm;

/// A partial sum climbing the reduction tree: every contribution one
/// subtree gathered for a round. Reducer::io is its field list and
/// Reducer::recv its handler.
struct ReductionMsg {
  int rank = 0;  ///< receiving tree rank
  int round = 0;
  /// (contributor id, value) pairs. Carrying the pairs up the tree (instead
  /// of a running double) costs nothing in the model — the modeled payload
  /// stays one scalar plus header — and lets the root sum in canonical id
  /// order.
  std::vector<std::pair<int, double>> parts;
};

/// Repeated tree reduction of doubles across PEs, Charm++-style: every round
/// (timestep), each contributor deposits a value from within a task; when a
/// PE has all its local contributions for a round it sends its partial sum
/// one hop up a binary tree over the participating PEs; the root invokes the
/// round callback as a task. Models the per-step energy reduction NAMD
/// performs, including its message costs and latency.
class Reducer {
 public:
  /// `pe_of_contributor[i]` is the (fixed) PE contributor i reports from.
  /// `entry` labels the internal reduction tasks for tracing; `callback` runs
  /// at the tree root with (round, total).
  Reducer(std::vector<int> pe_of_contributor, EntryId entry,
          std::function<void(int round, double total)> callback);

  /// Deposits contributor `id`'s value for `round`; must be called from a
  /// task running on the contributor's PE. The total delivered to the root
  /// is the sum over contributions *in ascending id order*, regardless of
  /// arrival order — bitwise identical across backends and thread counts
  /// even though floating-point addition doesn't associate.
  void contribute(ExecContext& ctx, int id, int round, double value);

  /// PE hosting the reduction root.
  int root_pe() const { return active_pes_.empty() ? 0 : active_pes_[0]; }

  /// Routes the tree's upward partial-sum messages through the reliable
  /// layer (nullptr = raw sends). Contributions themselves are local calls.
  void set_reliable(ReliableComm* reliable) { reliable_ = reliable; }

  /// Rounds the tree currently accepts: a decoded message for a round
  /// outside [first, last] is rejected. ParallelSim opens each cycle's.
  void expect_rounds(int first, int last) {
    first_round_ = first;
    last_round_ = last;
  }

  /// ReductionMsg's field list. A reader validates it against this tree:
  /// the rank exists, the round is open, the parts are a child subtree's
  /// (at least one, at most what the rank gathers from below) and every
  /// contributor id is known.
  template <class Io>
  void io(Io& io, ReductionMsg& m) const {
    const std::size_t rank = io.index(m.rank, active_pes_.size());
    const int round = io.field(m.round);
    io.check(round >= first_round_ && round <= last_round_,
             StateError::kRoundOutOfRange);
    const auto& parts = io.list(m.parts);
    const int from_below = subtree_expected_[rank] - local_expected_[rank];
    io.check(!parts.empty() && parts.size() <= static_cast<std::size_t>(from_below),
             StateError::kCountMismatch);
    for (const auto& part : parts) {
      io.check(part.first >= 0 && part.first < contributors_,
               StateError::kIndexOutOfRange);
    }
  }

  /// ReductionMsg's handler (the combine cost, then absorb at m.rank); the
  /// in-process task and the decoded wire task both run it.
  void recv(ExecContext& ctx, ReductionMsg& m);

  /// Discards every partially filled round on every tree node. Checkpoint
  /// restart uses this: replayed contributions must start from a clean
  /// slate or the counts would double.
  void clear_pending();

 private:
  /// Handles contributions arriving at `rank` in the tree (local deposit or
  /// child message); forwards up or completes.
  void absorb(ExecContext& ctx, int rank, int round,
              std::vector<std::pair<int, double>> parts);

  int rank_of_pe(int pe) const;

  std::vector<int> active_pes_;            ///< participating PEs, tree order
  std::unordered_map<int, int> pe_rank_;   ///< pe -> rank
  std::vector<int> local_expected_;        ///< contributions expected per rank
  std::vector<int> subtree_expected_;      ///< total expected in subtree
  /// Per rank, per round: the (contributor id, value) pairs gathered so far.
  std::vector<std::unordered_map<int, std::vector<std::pair<int, double>>>> state_;
  EntryId entry_;
  std::function<void(int, double)> callback_;
  ReliableComm* reliable_ = nullptr;
  int contributors_ = 0;
  int first_round_ = 0;
  int last_round_ = 0;
};

}  // namespace scalemd
