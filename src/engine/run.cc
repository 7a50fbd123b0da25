#include "engine/run.h"

#include <algorithm>

#include "ckpt/event_codec.h"
#include "ckpt/io.h"
#include "common/string_util.h"
#include "engine/run_arena.h"

namespace cep {

void RunDeleter::operator()(Run* run) const noexcept {
  if (run == nullptr) return;
  if (arena != nullptr) {
    arena->Release(run);
  } else {
    delete run;
  }
}

void Run::AppendEvent(int var_index, EventPtr event, BindingCellPool* pool) {
  VarBinding& vb = vars_[var_index];
  const Event* raw = event.get();
  // Copy-on-write: the parent's chain (vb.head and below) is never mutated;
  // the new cell takes over this run's ownership reference to it.
  vb.head = NewBindingCell(pool, std::move(event), vb.head);
  if (vb.count == 0) vb.first = raw;
  ++vb.count;
}

void Run::Bind(int var_index, EventPtr event, int state,
               BindingCellPool* pool) {
  last_ts_ = event->timestamp();
  if (size_ == 0) start_ts_ = event->timestamp();
  AppendEvent(var_index, std::move(event), pool);
  state_ = state;
  ++size_;
}

RunPtr Run::Extend(uint64_t child_id, int var_index, const EventPtr& event,
                   int state, RunArena* arena) const {
  RunPtr child = arena != nullptr
                     ? arena->New(child_id, num_vars_, state_, start_ts_)
                     : MakeRun(child_id, num_vars_, state_, start_ts_);
  for (int v = 0; v < num_vars_; ++v) {
    child->vars_[v] = vars_[v];
    RetainBindingChain(child->vars_[v].head);
  }
  child->trail_ = trail_;
  child->size_ = size_;
  child->last_ts_ = last_ts_;
  child->pm_hash_ = pm_hash_;
  child->Bind(var_index, event, state,
              arena != nullptr ? arena->cell_pool() : nullptr);
  return child;
}

const Event* Run::kleene_event(int var_index, int idx) const {
  const VarBinding& vb = vars_[var_index];
  if (idx < 0 || static_cast<uint32_t>(idx) >= vb.count) return nullptr;
  if (idx == 0) return vb.first;
  // Chain is newest-first: index i (oldest-first) is count-1-i hops from head.
  const BindingCell* cell = vb.head;
  for (uint32_t hops = vb.count - 1 - static_cast<uint32_t>(idx); hops > 0;
       --hops) {
    cell = cell->prev;
  }
  return cell->event.get();
}

std::vector<EventPtr> Run::binding(int var_index) const {
  const VarBinding& vb = vars_[var_index];
  std::vector<EventPtr> out(vb.count);
  size_t i = vb.count;
  for (const BindingCell* cell = vb.head; cell != nullptr; cell = cell->prev) {
    out[--i] = cell->event;
  }
  return out;
}

std::vector<std::vector<EventPtr>> Run::CopyBindings() const {
  std::vector<std::vector<EventPtr>> out;
  out.reserve(static_cast<size_t>(num_vars_));
  for (int v = 0; v < num_vars_; ++v) out.push_back(binding(v));
  return out;
}

Status Run::SerializeTo(ckpt::Sink& sink,
                        ckpt::EventTableBuilder* table) const {
  sink.WriteU64(id_);
  sink.WriteI64(state_);
  sink.WriteI64(start_ts_);
  sink.WriteI64(last_ts_);
  sink.WriteI64(size_);
  sink.WriteU64(pm_hash_);
  sink.WriteU32(static_cast<uint32_t>(num_vars_));
  for (int v = 0; v < num_vars_; ++v) {
    const VarBinding& vb = vars_[v];
    if (vb.count == 0) {
      sink.WriteU8(0);
      continue;
    }
    sink.WriteU8(1);
    sink.WriteU32(vb.count);
    // Oldest-first on the wire (pre-refactor format), and interning order
    // decides table indices: collect the newest-first chain into a row
    // reused across calls, then intern it in reverse.
    static thread_local std::vector<const Event*> row;
    row.clear();
    for (const BindingCell* cell = vb.head; cell != nullptr;
         cell = cell->prev) {
      row.push_back(cell->event.get());
    }
    for (auto it = row.rbegin(); it != row.rend(); ++it) {
      sink.WriteU32(table->Intern(**it));
    }
  }
  // The trail capacity field predates the flat layout (ApproxBytes once
  // counted capacity); it is kept on the wire so snapshots stay format- and
  // byte-compatible, and so capacity still round-trips through restore.
  sink.WriteU32(static_cast<uint32_t>(trail_.size()));
  sink.WriteU32(static_cast<uint32_t>(trail_.capacity()));
  for (const uint64_t key : trail_) sink.WriteU64(key);
  return Status::OK();
}

Result<RunPtr> Run::RestoreFrom(ckpt::Source& source,
                                const ckpt::EventTable& table,
                                RunArena* arena, BindingCellPool* pool) {
  CEP_ASSIGN_OR_RETURN(uint64_t id, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(int64_t state, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(int64_t start_ts, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(int64_t last_ts, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(int64_t size, source.ReadI64());
  CEP_ASSIGN_OR_RETURN(uint64_t pm_hash, source.ReadU64());
  CEP_ASSIGN_OR_RETURN(uint32_t num_variables, source.ReadU32());
  if (pool == nullptr && arena != nullptr) pool = arena->cell_pool();
  RunPtr run = arena != nullptr
                   ? arena->New(id, static_cast<int>(num_variables),
                                static_cast<int>(state), start_ts)
                   : MakeRun(id, static_cast<int>(num_variables),
                             static_cast<int>(state), start_ts);
  run->last_ts_ = last_ts;
  run->size_ = static_cast<int32_t>(size);
  run->pm_hash_ = pm_hash;
  for (uint32_t v = 0; v < num_variables; ++v) {
    CEP_ASSIGN_OR_RETURN(uint8_t present, source.ReadU8());
    if (present == 0) continue;
    CEP_ASSIGN_OR_RETURN(uint32_t count, source.ReadU32());
    for (uint32_t e = 0; e < count; ++e) {
      CEP_ASSIGN_OR_RETURN(uint32_t index, source.ReadU32());
      CEP_ASSIGN_OR_RETURN(EventPtr event, table.Get(index));
      run->AppendEvent(static_cast<int>(v), std::move(event), pool);
    }
  }
  CEP_ASSIGN_OR_RETURN(uint32_t trail_size, source.ReadU32());
  CEP_ASSIGN_OR_RETURN(uint32_t trail_capacity, source.ReadU32());
  run->trail_.reserve(std::max(trail_size, trail_capacity));
  for (uint32_t i = 0; i < trail_size; ++i) {
    CEP_ASSIGN_OR_RETURN(uint64_t key, source.ReadU64());
    run->trail_.push_back(key);
  }
  return run;
}

std::string Run::ToString(const ParsedQuery& query) const {
  std::string out = StrFormat("run#%llu S%d <",
                              static_cast<unsigned long long>(id_), state_);
  bool first = true;
  for (int v = 0; v < num_vars_; ++v) {
    for (const auto& e : binding(v)) {
      if (!first) out += ", ";
      first = false;
      out += query.pattern[v].name + ":" + std::to_string(e->timestamp());
    }
  }
  out += ">";
  return out;
}

}  // namespace cep
