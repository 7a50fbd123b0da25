#ifndef CEPSHED_ENGINE_BATCH_EVAL_H_
#define CEPSHED_ENGINE_BATCH_EVAL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/run_store.h"
#include "event/event.h"
#include "nfa/nfa.h"
#include "query/expr.h"

namespace cep {

/// Verdict of the fast edge evaluator. kFallback means "re-evaluate this edge
/// through the generic Expr interpreter": the fast path refuses to conclude
/// whenever generic evaluation could differ — non-numeric operands, NaN under
/// an ordering comparison (a TypeError in Value::Compare), out-of-range
/// attribute indices — so verdicts are bit-identical by construction.
enum class FastVerdict : uint8_t { kFalse, kTrue, kFallback };

/// \brief Compiled form of the NFA's edge predicates for batched evaluation.
///
/// At engine construction, every edge predicate of the shape the paper's
/// query corpus uses —
///
///   <operand> cmp <operand>   or   diff(<operand>, <operand>) cmp <operand>
///
/// where an operand is a numeric literal, an attribute of the candidate
/// event, or an attribute of an event already bound to the run (the first or
/// last of a variable's binding) — is lowered to a CompiledPred. Run-side
/// operands are assigned HotAttr column slots gathered by the RunStore;
/// event-side operands and literals are resolved once per event by
/// BeginEvent, which rebinds every predicate to either a hot-column pointer
/// or a preloaded constant. The per-event pass then evaluates an edge over a
/// contiguous run batch as one column load plus tag checks and int/double
/// compares per predicate — no virtual Expr::Eval walk, no Value copies, no
/// shared_ptr traffic, no per-run operand dispatch.
///
/// Edges with any predicate outside this shape (Kleene aggregates, COUNT,
/// arithmetic, AND/OR, string operands, b[i-1] on a foreign variable) stay on
/// the generic interpreter, as does any run whose gathered operand tags the
/// fast path cannot decide (FastVerdict::kFallback).
class BatchEvalPlan {
 public:
  /// Where a compiled operand's value comes from at evaluation time.
  enum class Src : uint8_t {
    kCurrent,  ///< candidate event attribute (resolved per event)
    kHot,      ///< run-side attribute (RunStore hot column)
    kLit,      ///< literal, encoded at compile time
  };

  struct Operand {
    Src src = Src::kLit;
    int attr_index = 0;  ///< kCurrent: schema index into the candidate event
    int hot_slot = 0;    ///< kHot: RunStore column
    HotCell lit;         ///< kLit
  };

  /// One side of a comparison: a plain operand or diff(x, y).
  struct Term {
    bool is_diff = false;
    Operand x;
    Operand y;  ///< only when is_diff
  };

  struct Pred {
    BinaryOp op = BinaryOp::kEq;  ///< kEq..kGe
    Term lhs;
    Term rhs;
  };

  /// Per-event resolved operand: either a hot-column pointer (indexed by run
  /// row) or a constant (candidate attribute / literal) preloaded by
  /// BeginEvent.
  struct BoundOperand {
    const HotCell* col = nullptr;  ///< non-null: read col[row]
    HotCell val;                   ///< null col: per-event constant
  };

  struct BoundTerm {
    bool is_diff = false;
    BoundOperand x;
    BoundOperand y;  ///< only when is_diff
  };

  struct BoundPred {
    BinaryOp op = BinaryOp::kEq;
    BoundTerm lhs;
    BoundTerm rhs;
  };

  /// Compiled predicates of one edge: `count` entries starting at `first` in
  /// the plan's flat predicate array (exit predicates first, then take
  /// predicates — interpreter order, relevant only for error fallback).
  struct CompiledEdge {
    bool fast = false;
    uint32_t first = 0;
    uint32_t count = 0;
  };

  /// Lowers every edge of `nfa`. Idempotent per plan instance.
  void Compile(const Nfa& nfa);

  /// Hot run-side attributes the RunStore must gather (stable for the plan's
  /// lifetime; the store keeps a pointer to it).
  const std::vector<HotAttr>& hot_plan() const { return hot_; }

  /// Number of edges that compiled to the fast path / total edges.
  size_t fast_edge_count() const { return fast_edges_; }
  size_t total_edge_count() const { return total_edges_; }

  /// Resolves every compiled operand against `event` (candidate attributes,
  /// literals) and `store` (hot-column base pointers). Call once per event
  /// before the pass over R(t); the bound form stays valid while the pass
  /// only kills and re-gathers rows in place.
  void BeginEvent(const Event& event, const RunStore& store);

  const CompiledEdge& edge(int state, size_t edge_index) const {
    return edges_[state_base_[static_cast<size_t>(state)] + edge_index];
  }

  /// Evaluates a compiled-fast edge against run row `i` with the BeginEvent
  /// candidate virtually bound. Pure: reads the plan and the store's
  /// columns. Inline: this runs once per (run, edge) on the hot path.
  FastVerdict EvalFast(const CompiledEdge& ce, size_t i) const {
    const BoundPred* preds = bound_.data() + ce.first;
    for (uint32_t p = 0; p < ce.count; ++p) {
      const BoundPred& pred = preds[p];
      bool fallback = false;
      const HotCell a = EvalTerm(pred.lhs, i, &fallback);
      if (fallback) return FastVerdict::kFallback;
      const HotCell b = EvalTerm(pred.rhs, i, &fallback);
      if (fallback) return FastVerdict::kFallback;
      // Comparison with null is false (EvalComparison), failing the edge.
      if (a.tag == kHotNull || b.tag == kHotNull) return FastVerdict::kFalse;
      if (a.tag == kHotOther || b.tag == kHotOther) {
        return FastVerdict::kFallback;
      }
      bool pass;
      if (pred.op == BinaryOp::kEq || pred.op == BinaryOp::kNe) {
        // Value::operator==: int-int exact, otherwise double coercion (under
        // which NaN != NaN, matching IEEE and the interpreter).
        const bool eq = (a.tag == kHotInt && b.tag == kHotInt) ? a.i == b.i
                                                               : a.d == b.d;
        pass = pred.op == BinaryOp::kEq ? eq : !eq;
      } else if (a.tag == kHotInt && b.tag == kHotInt) {
        switch (pred.op) {
          case BinaryOp::kLt: pass = a.i < b.i; break;
          case BinaryOp::kLe: pass = a.i <= b.i; break;
          case BinaryOp::kGt: pass = a.i > b.i; break;
          default: pass = a.i >= b.i; break;
        }
      } else {
        // Value::Compare raises TypeError on NaN ordering: interpreter's
        // call.
        if (std::isnan(a.d) || std::isnan(b.d)) return FastVerdict::kFallback;
        switch (pred.op) {
          case BinaryOp::kLt: pass = a.d < b.d; break;
          case BinaryOp::kLe: pass = a.d <= b.d; break;
          case BinaryOp::kGt: pass = a.d > b.d; break;
          default: pass = a.d >= b.d; break;
        }
      }
      if (!pass) return FastVerdict::kFalse;
    }
    return FastVerdict::kTrue;
  }

 private:
  bool CompileOperand(const Expr& expr, int current_var, Operand* out);
  bool CompileTerm(const Expr& expr, int current_var, Term* out);
  bool CompilePred(const Expr& expr, int current_var, Pred* out);
  int InternHotSlot(int var, int attr_index, bool last);

  void BindOperand(const Operand& op, const RunStore& store,
                   BoundOperand* out) const;

  static const HotCell& Load(const BoundOperand& op, size_t i) {
    return op.col != nullptr ? op.col[i] : op.val;
  }

  /// Evaluates a term; *fallback set when generic evaluation must decide.
  HotCell EvalTerm(const BoundTerm& term, size_t i, bool* fallback) const {
    const HotCell& x = Load(term.x, i);
    if (!term.is_diff) return x;
    const HotCell& y = Load(term.y, i);
    // diff() mirrors CallExpr::Eval: null propagates before the builtin
    // runs; a non-numeric argument is a TypeError, which only the
    // interpreter may raise.
    if (x.tag == kHotNull || y.tag == kHotNull) {
      return HotCell{kHotNull, 0, 0.0};
    }
    if (x.tag == kHotOther || y.tag == kHotOther) {
      *fallback = true;
      return x;
    }
    return HotCell{kHotDouble, 0, std::fabs(x.d - y.d)};
  }

  std::vector<CompiledEdge> edges_;     ///< flat, state_base_[state] + edge
  std::vector<uint32_t> state_base_;    ///< first edge index per state
  std::vector<Pred> preds_;             ///< flat predicate pool (compile time)
  std::vector<BoundPred> bound_;        ///< preds_, rebound per event
  std::vector<HotAttr> hot_;
  std::vector<HotCell> event_attrs_;    ///< scratch row, rebuilt per event
  size_t fast_edges_ = 0;
  size_t total_edges_ = 0;
};

}  // namespace cep

#endif  // CEPSHED_ENGINE_BATCH_EVAL_H_
