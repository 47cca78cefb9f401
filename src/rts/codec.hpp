#pragma once

// The field codec. A struct's field visitor, `template <class Io> void
// io(Io&, T&)`, names each of its wire fields once; StateWriter drives it
// over wire::Encoder and StateReader over wire::Decoder, so one visitor both
// encodes a struct and decodes and validates it. ParallelSim's state
// (core/sim_state.cpp), the runtime messages that cross a worker
// (core/parallel_sim_rt.hpp, rts/reduction.hpp) and the process backend's
// task and stats frames all go through it. EXPERIMENTS.md "Wire format"
// lists the layouts.

#include <cassert>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rts/wire.hpp"
#include "util/vec3.hpp"

namespace scalemd {

/// Why a blob (checkpoint, exported state, worker frame, task frame) was
/// rejected. Every malformed blob maps to exactly one of these.
enum class StateError {
  kTruncated,         ///< fewer bytes than the fields (or a count) need
  kTrailingBytes,     ///< bytes left over after the last field
  kBadInt,            ///< an integer or flag outside its field's type range
  kCountMismatch,     ///< a count or length differs from what the receiver holds
  kPeOutOfRange,      ///< a PE id outside [0, num_pes)
  kDepOutOfRange,     ///< a compute dependency outside [0, patch count)
  kAtomLocMismatch,   ///< atom_loc disagrees with the patches' atom lists
  kIndexOutOfRange,   ///< a patch, proxy, slab, tree-rank or contributor id
                      ///< outside its table
  kRoundOutOfRange,   ///< a step or reduction round outside the running cycle
  kEntryOutOfRange,   ///< an entry id that is not registered for this frame
};

inline const char* state_error_name(StateError e) {
  static constexpr const char* kNames[] = {
      "truncated",          "trailing-bytes",     "bad-int",
      "count-mismatch",     "pe-out-of-range",    "dep-out-of-range",
      "atom-loc-mismatch",  "index-out-of-range", "round-out-of-range",
      "entry-out-of-range"};
  const auto i = static_cast<std::size_t>(e);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

/// Thrown by every StateReader check; what() is state_error_name(error()).
class StateDecodeError : public std::runtime_error {
 public:
  explicit StateDecodeError(StateError e)
      : std::runtime_error(state_error_name(e)), error_(e) {}
  StateError error() const { return error_; }

 private:
  StateError error_;
};

/// Lower bound on the wire bytes of one list element, so a reader can
/// refuse a count the remaining bytes cannot hold before it allocates.
/// Types with larger elements specialize it.
template <class T>
inline constexpr std::size_t kWireSize = 8;  // int (as i64), double, u64
template <>
inline constexpr std::size_t kWireSize<Vec3> = 3 * 8;
template <>
inline constexpr std::size_t kWireSize<std::pair<int, int>> = 2 * 8;
template <>
inline constexpr std::size_t kWireSize<std::pair<int, double>> = 2 * 8;

// Values as wire primitives (f64, i32 as i64, u64, flag as u8), one
// decomposition for both directions. Other value types add overloads next
// to their visitors; readers and writers find them by argument lookup.
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
template <class Io, class A, class B>
void io_value(Io& io, std::pair<A, B>& p) {
  io_value(io, p.first);
  io_value(io, p.second);
}

/// Encodes the fields a visitor names. Accessors return the live value, so
/// a visitor reads counts and ids the same way in both directions, and
/// every check is a no-op.
class StateWriter {
 public:
  static constexpr bool kReading = false;

  explicit StateWriter(wire::Encoder& e) : e_(e) {}

  template <class T>
  const T& field(T& v) {
    io_value(*this, v);
    return v;
  }
  /// An id that indexes a table of `n` entries; a reader rejects any other.
  std::size_t index(int& id, std::size_t /*n*/) {
    e_.i64(id);
    return static_cast<std::size_t>(id);
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
  /// Count-prefixed raw bytes (an opaque nested payload).
  void blob(std::vector<std::uint8_t>& b) { e_.blob(b); }
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

/// Decodes the fields a visitor names; any defect throws one
/// StateDecodeError. Staged (checkpoints, import_state): decoded values are
/// held back and finish() moves them into the live fields only after the
/// last field decoded and every check passed, so a rejected blob changes
/// nothing. Unstaged (worker and task frames): values land in the live
/// fields as they decode. Accessors return the decoded value; visitors must
/// read counts and ids through them, since staging leaves the live field
/// stale.
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
  std::size_t index(int& live, std::size_t n) {
    const int id = field(live);
    check(id >= 0 && static_cast<std::size_t>(id) < n, StateError::kIndexOutOfRange);
    return static_cast<std::size_t>(id);
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
  void blob(std::vector<std::uint8_t>& live) {
    check(d_.blob(target(live)), StateError::kTruncated);
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

/// Encodes one struct through its field visitor, `visit(writer)`.
template <class Visit>
std::vector<std::uint8_t> encode_fields(Visit&& visit) {
  wire::Encoder e;
  StateWriter w(e);
  visit(w);
  return e.take();
}

}  // namespace scalemd
