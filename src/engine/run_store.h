#ifndef CEPSHED_ENGINE_RUN_STORE_H_
#define CEPSHED_ENGINE_RUN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_bitmap.h"
#include "common/status.h"
#include "engine/run.h"

namespace cep {

/// Runtime tag of a gathered attribute value (HotCell / batch evaluation).
/// Only numeric values evaluate on the fast path; kOther (bool/string) and
/// anything else unexpected routes the edge to the generic interpreter.
inline constexpr uint8_t kHotNull = 0;
inline constexpr uint8_t kHotInt = 1;
inline constexpr uint8_t kHotDouble = 2;
inline constexpr uint8_t kHotOther = 3;

/// One gathered attribute value: tag plus both numeric representations so
/// int-int comparisons stay exact (Value semantics) while mixed comparisons
/// read the double without a branch.
struct HotCell {
  uint8_t tag = kHotNull;
  int64_t i = 0;
  double d = 0.0;
};

/// One run-side attribute the compiled predicates read: `attr_index` of the
/// first (or last) event bound to `var`. The batch compiler assigns each
/// distinct (var, attr, last) one column slot in the RunStore.
struct HotAttr {
  int var = 0;
  int attr_index = 0;
  bool last = false;  ///< head of the binding chain instead of the first event
};

/// \brief Flat struct-of-arrays view over the live run set R(t).
///
/// The store owns the run slots (RunPtr, arena-backed) and mirrors the hot
/// scalars every per-event probe reads — NFA state, window anchor, last-bound
/// timestamp, size — plus one HotCell column per compiled run-side attribute,
/// into parallel arrays. The engine's per-event pass then scans contiguous
/// int32/int64 columns instead of chasing a pointer per run, and only
/// dereferences a Run for fallback evaluation and for runs that advance,
/// expire or die. Live/victim masks are inline bitmaps
/// (common/inline_bitmap.h). See docs/DATA_LAYOUT.md.
///
/// Columns are written only through Push / Refresh / Kill / Compact. During
/// the pass, Refresh(i) and Kill(i) touch row i alone, so the column
/// pointers the pass holds stay valid.
class RunStore {
 public:
  /// Installs the hot-attribute plan (owned by the caller, alive for the
  /// store's lifetime). Must be called before the first Push.
  void SetHotPlan(const std::vector<HotAttr>* plan) {
    plan_ = plan;
    hot_.assign(plan_ == nullptr ? 0 : plan_->size(), {});
  }

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  const std::vector<RunPtr>& slots() const { return slots_; }
  Run* at(size_t i) { return slots_[i].get(); }
  const Run* at(size_t i) const { return slots_[i].get(); }
  RunPtr& slot(size_t i) { return slots_[i]; }

  /// Appends `run` and gathers its columns. The live bit is set, the victim
  /// bit cleared.
  void Push(RunPtr run);

  /// Re-gathers row `i` after an in-place mutation (greedy Bind).
  void Refresh(size_t i);

  /// Releases slot `i` (state column left stale; the live mask is the truth
  /// until the next Compact).
  void Kill(size_t i);

  /// Marks row `i` in the victim mask and releases it (shedding).
  void MarkVictim(size_t i);

  /// Drops dead rows, compacting every column in place (stable order).
  /// Clears the victim mask: a victim bit only means something during the
  /// episode that set it.
  void Compact();

  /// Releases every run and empties all columns (checkpoint restore).
  void Clear();

  // --- column access (per-event pass) ---------------------------------------
  const int32_t* states() const { return states_.data(); }
  const int64_t* start_ts() const { return start_ts_.data(); }
  const int64_t* last_ts() const { return last_ts_.data(); }
  const int32_t* sizes() const { return sizes_.data(); }
  size_t hot_width() const { return hot_.size(); }
  const HotCell* hot(size_t k) const { return hot_[k].data(); }

  const InlineBitmap& live_mask() const { return live_; }
  const InlineBitmap& victim_mask() const { return victims_; }

  /// Cross-checks columns against the runs they mirror: mask/slot agreement
  /// everywhere, and exact column equality for the first `deep_limit` live
  /// rows. Internal error on divergence.
  Status CheckConsistency(size_t deep_limit) const;

 private:
  void Gather(size_t i, const Run& run);

  const std::vector<HotAttr>* plan_ = nullptr;
  std::vector<RunPtr> slots_;
  std::vector<int32_t> states_;
  std::vector<int64_t> start_ts_;
  std::vector<int64_t> last_ts_;
  std::vector<int32_t> sizes_;
  std::vector<std::vector<HotCell>> hot_;  ///< [plan slot][row]
  InlineBitmap live_;
  InlineBitmap victims_;
};

/// Encodes `event`'s `attr_index` attribute (null when `event` is null or
/// the index is out of the event's range — the latter routes to kHotOther so
/// the generic interpreter keeps its exact behavior).
HotCell EncodeHotAttr(const Event* event, int attr_index);

/// Encodes a Value (literal operands, event-side gathering).
HotCell EncodeHotValue(const Value& value);

}  // namespace cep

#endif  // CEPSHED_ENGINE_RUN_STORE_H_
