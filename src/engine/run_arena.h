#ifndef CEPSHED_ENGINE_RUN_ARENA_H_
#define CEPSHED_ENGINE_RUN_ARENA_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "ckpt/io.h"
#include "ckpt/state_component.h"
#include "common/status.h"
#include "engine/binding_slab.h"
#include "engine/run.h"

namespace cep {

/// \brief Free-list pool allocator for Run objects.
///
/// Run creation, shedding, and window expiry are the engine's dominant
/// allocator load: under skip-till-any-match every transition heap-allocates
/// a fresh run and every shed episode frees a fifth of R(t). The arena
/// carves fixed-size slots out of block allocations and recycles released
/// slots through an intrusive free list, so the steady-state churn costs a
/// pointer pop/push instead of a malloc/free round trip, and the memory the
/// run set occupies stays resident and traversal-friendly.
///
/// Not thread-safe by design: each Engine owns one arena, and all run
/// births/deaths happen on the thread driving that engine (see
/// docs/PARALLELISM.md), so no lock is needed.
///
/// `bytes_reserved()` feeds EngineMetrics::arena_bytes_reserved so the
/// degradation ladder's byte accounting can be checked against the real
/// footprint.
class RunArena : public ckpt::StateComponent {
 public:
  /// Slots are allocated `runs_per_block` at a time; 0 disables pooling
  /// (New() falls back to the global heap, Release() to delete, and
  /// cell_pool() reports null so binding chains also go to the heap).
  explicit RunArena(size_t runs_per_block = 512)
      : runs_per_block_(runs_per_block),
        cells_(runs_per_block == 0 ? 1024 : runs_per_block * 2) {}

  ~RunArena() {
    // All runs must have been released; the engine destroys its run vectors
    // before the arena (member order) so this holds by construction.
    assert(live_ == 0 && "RunArena destroyed with live runs");
  }

  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

  /// Constructs a Run in a pooled slot (or on the heap when pooling is
  /// disabled). The returned RunPtr releases the slot back to this arena.
  template <typename... Args>
  RunPtr New(Args&&... args) {
    if (runs_per_block_ == 0) {
      return RunPtr(new Run(std::forward<Args>(args)...), RunDeleter{nullptr});
    }
    Slot* slot = AcquireSlot();
    Run* run = new (slot->storage) Run(std::forward<Args>(args)...);
    ++live_;
    return RunPtr(run, RunDeleter{this});
  }

  /// Destroys `run` and recycles its slot (called via RunDeleter).
  void Release(Run* run) noexcept {
    run->~Run();
    Slot* slot = reinterpret_cast<Slot*>(run);
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  /// Runs currently alive in this arena.
  size_t live() const { return live_; }

  /// Total slots reserved across all blocks.
  size_t capacity() const { return blocks_.size() * runs_per_block_; }

  /// Bytes reserved by the arena's run-slot blocks (0 when pooling is
  /// disabled). The binding-cell slab is reported separately
  /// (cell_bytes_reserved()) and deliberately kept out of the checkpointed
  /// arena_bytes_reserved metric: a restored run set rebuilds its chains
  /// without cross-run sharing, so slab capacity is not restore-deterministic
  /// the way slot capacity is.
  size_t bytes_reserved() const { return capacity() * sizeof(Slot); }

  /// Bytes reserved by the binding-cell slab (obs only; see above).
  size_t cell_bytes_reserved() const {
    return runs_per_block_ == 0 ? 0 : cells_.bytes_reserved();
  }

  /// Binding-cell slab shared by this arena's runs, or null when pooling is
  /// disabled (chain cells then come from the heap).
  BindingCellPool* cell_pool() {
    return runs_per_block_ == 0 ? nullptr : &cells_;
  }
  const BindingCellPool* cell_pool() const {
    return runs_per_block_ == 0 ? nullptr : &cells_;
  }

  /// Returns all blocks to the heap. May only be called with no live runs;
  /// the next New() starts growing fresh blocks.
  void Reset() {
    assert(live_ == 0 && "RunArena::Reset with live runs");
    blocks_.clear();
    free_ = nullptr;
    cells_.Reset();
  }

  /// Checkpoint codec. The arena's blocks and free list are allocator
  /// mechanics, not logical state — the pooled runs themselves snapshot
  /// through the engine's run-set component and re-seat into fresh slots on
  /// restore. What the section carries is the configuration fingerprint
  /// (slot size, block size) so a snapshot cannot be restored into an arena
  /// whose layout would silently skew the byte-budget accounting.
  Status SerializeTo(ckpt::Sink& sink) const override {
    sink.WriteU64(runs_per_block_);
    sink.WriteU64(live_);
    return Status::OK();
  }

  Status RestoreFrom(ckpt::Source& source) override {
    Result<uint64_t> per_block = source.ReadU64();
    if (!per_block.ok()) return per_block.status();
    if (per_block.ValueOrDie() != runs_per_block_) {
      return Status::InvalidArgument(
          "snapshot was written with arena_block_runs=" +
          std::to_string(per_block.ValueOrDie()) + ", this engine uses " +
          std::to_string(runs_per_block_));
    }
    Result<uint64_t> live = source.ReadU64();
    if (!live.ok()) return live.status();
    // `live` is restored implicitly when the run-set component re-creates
    // its runs through New(); here it only documents the snapshot.
    return Status::OK();
  }

 private:
  union Slot {
    Slot* next;
    alignas(Run) unsigned char storage[sizeof(Run)];
  };

  Slot* AcquireSlot() {
    if (free_ == nullptr) {
      blocks_.push_back(std::make_unique<Slot[]>(runs_per_block_));
      Slot* block = blocks_.back().get();
      // Thread the fresh block onto the free list back to front so slots
      // are first handed out in address order.
      for (size_t i = runs_per_block_; i > 0; --i) {
        block[i - 1].next = free_;
        free_ = &block[i - 1];
      }
    }
    Slot* slot = free_;
    free_ = slot->next;
    return slot;
  }

  size_t runs_per_block_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  Slot* free_ = nullptr;
  size_t live_ = 0;
  /// Chain cells for this arena's runs. Declared after the run blocks only
  /// for layout; destruction order is irrelevant because the engine releases
  /// all runs (and thereby all cells) before the arena dies.
  BindingCellPool cells_;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_RUN_ARENA_H_
