#ifndef CEPSHED_SHEDDING_SHEDDER_H_
#define CEPSHED_SHEDDING_SHEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "ckpt/state_component.h"
#include "common/time.h"
#include "engine/run.h"
#include "nfa/nfa.h"

namespace cep {

class RunStore;

/// \brief Model scores behind one shedding decision, recorded in the
/// observability audit trail (obs/audit.h). Strategies without models leave
/// the defaults.
struct ShedVictimScores {
  double c_plus = 0.0;   ///< contribution estimate C+(r|t)
  double c_minus = 0.0;  ///< cost estimate C-(r|t)
  double score = 0.0;    ///< combined ranking score (lowest shed first)
  int time_slice = -1;   ///< relative-time slice, -1 when not sliced
};

/// \brief Everything a strategy sees when asked for a shedding decision.
///
/// ShedContext is the single extension surface of the Shedder API: new
/// per-decision inputs are added here as fields with inert defaults rather
/// than as new virtual-method parameters. Field stability contract:
///
///  * Existing fields are never removed or repurposed; their meaning is
///    stable across releases.
///  * New fields always carry a default that reproduces the old behaviour,
///    so call sites using aggregate initialization keep compiling and
///    strategies that ignore a field behave exactly as before it existed.
///  * Pointer fields may be null (the engine feature behind them is off or
///    the caller is a test harness); strategies must tolerate null.
///
/// The engine builds a ShedContext in two situations, distinguished by
/// `event`:
///
///  * *Event probe* (`event != nullptr`): an input event has arrived and the
///    strategy may claim it (`ShedDecision::drop_event`) and/or shed runs
///    pre-emptively. `target` is 0 — input probes carry no victim quota.
///  * *Shed episode* (`event == nullptr`): overload was detected (µ(t) > θ)
///    and the strategy should select up to `target` victims among `runs`.
///
/// `runs` entries may be null (already dead this round) and must be skipped.
/// `want_scores` is true when an audit consumer (audit log or shed callback)
/// is attached: strategies with models should then fill ShedVictim::scores,
/// reusing the scores they computed for ranking instead of recomputing them
/// per victim.
struct ShedContext {
  const std::vector<RunPtr>& runs;
  Timestamp now = 0;
  size_t target = 0;  ///< upper bound on victims to select (0 on probes)
  bool want_scores = false;
  /// Arriving event on input probes; null during shed episodes.
  const Event* event = nullptr;
  /// µ(t) > θ at the time the context was built (false when θ disabled).
  bool overloaded = false;
  /// Live run storage for occupancy/column views (engine/run_store.h);
  /// null when the caller has no store (unit tests driving Decide directly).
  const RunStore* store = nullptr;
  /// Query window size; 0 when no NFA is attached yet.
  Duration window = 0;
  /// Degradation ladder level as int(DegradationLevel); -1 when the ladder
  /// is disabled.
  int degradation_level = -1;
};

/// \brief One selected victim: its index into ShedContext::runs plus the
/// model scores behind the decision (when the strategy has them and the
/// context asked for them).
struct ShedVictim {
  size_t index = 0;
  bool has_scores = false;
  ShedVictimScores scores;
};

/// \brief The outcome of one shedding decision. A single decision can carry
/// both halves of the paper's design space: drop the arriving input event
/// (`drop_event`, meaningful only for event probes) and/or shed partial
/// matches (`victims`, in the order the strategy ranked them, with their
/// audit records in the same batch).
struct ShedDecision {
  std::vector<ShedVictim> victims;
  bool drop_event = false;  ///< drop the probed input event unprocessed
};

/// \brief Pluggable load-shedding strategy.
///
/// The engine drives the strategy through two channels:
///
///  * *Learning hooks* — called on every run lifecycle transition so that
///    model-based strategies (state_shedder.h) can maintain their
///    contribution and resource-consumption statistics online. Hooks must be
///    O(1): the paper requires shedding decisions in constant time, and the
///    hooks are on the hot path even when the system is not overloaded.
///    Hook contract: the engine invokes every hook (and Decide) on the one
///    thread driving it, in deterministic run order, from its serial
///    per-event pass over R(t) (docs/PARALLELISM.md). One strategy instance
///    serves one engine, so implementations need no locking and may use
///    seeded RNGs without losing reproducibility.
///  * *Shedding decisions* — every decision flows through Decide(): the
///    engine probes the strategy on each arriving event (ShedContext::event
///    set) and runs a shed episode when overload is detected (µ(t) > θ,
///    ShedContext::event null, `target` victims wanted). One ShedDecision
///    can both drop the input event and shed runs.
///
/// Strategies are constructed through the ShedderRegistry (registry.h) from
/// `name(key=val,...)` spec strings; new strategies register a factory there
/// so every entry point (CLI, server specs, stress harness, benches) picks
/// them up without code changes.
///
/// Shedders are StateComponents: strategies with durable state (learned
/// models, RNG streams) serialize it so a restored engine sheds exactly as
/// the uninterrupted one would. The default implementation serializes
/// nothing, which is correct for stateless strategies.
class Shedder : public ckpt::StateComponent {
 public:
  ~Shedder() override = default;

  /// Strategy name used in experiment reports ("SBLS", "RBLS", ...) and as
  /// the checkpoint section suffix ("shedder.<name>"), so a snapshot taken
  /// with one strategy refuses to restore into another.
  virtual std::string name() const = 0;

  /// Called once before processing starts.
  virtual void Attach(const Nfa& nfa) { (void)nfa; }

  // --- learning hooks -------------------------------------------------------

  /// A run was created at the initial state with `event` bound.
  virtual void OnRunCreated(Run* run, const Event& event, Timestamp now) {
    (void)run;
    (void)event;
    (void)now;
  }

  /// `child` was derived from `parent` by a take transition binding `event`
  /// (the child already has it bound). `parent` is nullptr when the child
  /// was mutated in place (non-STAM selection strategies).
  virtual void OnRunExtended(const Run* parent, Run* child, const Event& event,
                             Timestamp now) {
    (void)parent;
    (void)child;
    (void)event;
    (void)now;
  }

  /// `run` just produced a complete match.
  virtual void OnMatchEmitted(const Run& run, Timestamp now) {
    (void)run;
    (void)now;
  }

  /// `run` left R(t) because its window closed.
  virtual void OnRunExpired(const Run& run, Timestamp now) {
    (void)run;
    (void)now;
  }

  // --- shedding decisions ----------------------------------------------------

  /// Input-based shedding helper: return true to drop `event` unprocessed.
  /// `overloaded` reflects µ(t) > θ at arrival time. The base Decide()
  /// bridges event probes here so simple input strategies only override this
  /// predicate; strategies that need the full context (run store, window
  /// position) override Decide() instead.
  virtual bool ShouldDropEvent(const Event& event, bool overloaded) {
    (void)event;
    (void)overloaded;
    return false;
  }

  /// The single decision entry point; see ShedContext for the probe/episode
  /// split. The default implementation drops nothing during episodes and
  /// bridges event probes to ShouldDropEvent().
  virtual ShedDecision Decide(const ShedContext& ctx);

  /// Live model introspection for quality observability: fills `scores`
  /// with the model values this strategy would use to rank `run` at `now`
  /// and returns true; returns false (leaving `scores` untouched) when the
  /// strategy has no per-run model. The engine calls this when a run exits
  /// (match/expiry) to feed CalibrationMonitor with the strategy's own
  /// completion-probability estimate, so any model-based strategy should
  /// implement it even though Decide() returns scores for victims.
  virtual bool DescribeVictim(const Run& run, Timestamp now,
                              ShedVictimScores* scores) const {
    (void)run;
    (void)now;
    (void)scores;
    return false;
  }

  // --- checkpointing ---------------------------------------------------------

  /// Stateless by default; strategies with learned models or RNG streams
  /// override both.
  Status SerializeTo(ckpt::Sink& sink) const override {
    (void)sink;
    return Status::OK();
  }
  Status RestoreFrom(ckpt::Source& source) override {
    (void)source;
    return Status::OK();
  }
};

using ShedderPtr = std::unique_ptr<Shedder>;

}  // namespace cep

#endif  // CEPSHED_SHEDDING_SHEDDER_H_
