// Tests for the multi-query optimizer (src/opt/, docs/OPTIMIZER.md): the
// name-free expression canonicalizer, each pass in isolation (DSE constant
// folding + dead-state removal, cross-query CSE interning, shared-prefix
// merging and its refusal cases, pushdown safety gating), and
// MultiEngine::Optimize end to end — per-query match identity against the
// unoptimized fan-out, metric export with duplicate query names, and the
// optimized checkpoint/restore paths including the mode- and
// digest-mismatch errors.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/multi.h"
#include "obs/metrics.h"
#include "opt/expr_canon.h"
#include "opt/fingerprint.h"
#include "opt/ir.h"
#include "opt/pass.h"
#include "opt/pass_manager.h"
#include "opt/passes.h"
#include "opt/shared_preds.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

constexpr char kLocQuery[] =
    "PATTERN SEQ(req a, unlock c) WHERE a.loc = 3, c.uid = a.uid "
    "WITHIN 5 min RETURN m(loc = a.loc, user = a.uid)";

std::vector<EventPtr> MakeStream(BikeSchema* schema, int num_events) {
  Rng rng(0x0b75c0de);
  std::vector<EventPtr> events;
  events.reserve(num_events);
  Timestamp ts = 0;
  for (int i = 0; i < num_events; ++i) {
    ts += 1 + static_cast<Duration>(rng.NextBounded(30 * kSecond));
    const auto loc = static_cast<int64_t>(rng.NextBounded(6));
    const auto uid = static_cast<int64_t>(rng.NextBounded(4));
    switch (rng.NextBounded(3)) {
      case 0:
        events.push_back(schema->Req(ts, loc, uid));
        break;
      case 1:
        events.push_back(
            schema->Avail(ts, loc, static_cast<int64_t>(rng.NextBounded(9))));
        break;
      default:
        events.push_back(schema->Unlock(ts, loc, uid, 1));
        break;
    }
  }
  return events;
}

/// First take edge for `type` anywhere in the automaton (the tests' queries
/// have exactly one per type).
const Edge* FindTakeEdge(const Nfa& nfa, EventTypeId type) {
  for (const State& state : nfa.states()) {
    for (const Edge& edge : state.edges) {
      if (edge.kind != EdgeKind::kKill && edge.event_type == type) {
        return &edge;
      }
    }
  }
  return nullptr;
}

opt::QueryUnit MakeUnit(BikeSchema* schema, const std::string& text,
                        size_t index, uint64_t fingerprint = 1) {
  opt::QueryUnit unit;
  unit.query_index = index;
  unit.leader = index;
  unit.nfa = schema->Compile(text);
  EXPECT_NE(unit.nfa, nullptr);
  unit.name = unit.nfa->query().name;
  unit.config_fingerprint = fingerprint;
  unit.mergeable = true;
  return unit;
}

opt::MultiQueryIr BuildIr(BikeSchema* schema,
                          const std::vector<std::string>& texts) {
  opt::MultiQueryIr ir;
  for (const std::string& text : texts) {
    ir.units.push_back(MakeUnit(schema, text, ir.units.size()));
  }
  return ir;
}

Status RunPipeline(opt::MultiQueryIr* ir, const opt::OptOptions& options = {}) {
  opt::PassManager pipeline = opt::MakeDefaultPipeline(options);
  return pipeline.Run(ir, false, nullptr);
}

// --- expression canonicalization -------------------------------------------

TEST(ExprCanonTest, CanonicalFormIsNameFree) {
  BikeSchema schema;
  const NfaPtr a = schema.Compile(
      "PATTERN SEQ(req a, unlock c) WHERE a.loc = 3, c.uid = a.uid "
      "WITHIN 5 min RETURN m(loc = a.loc)");
  const NfaPtr b = schema.Compile(
      "PATTERN SEQ(req x, unlock y) WHERE x.loc = 3, y.uid = x.uid "
      "WITHIN 5 min RETURN m(loc = x.loc)");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const EventTypeId req = schema.registry.FindType("req");
  const Edge* edge_a = FindTakeEdge(*a, req);
  const Edge* edge_b = FindTakeEdge(*b, req);
  ASSERT_NE(edge_a, nullptr);
  ASSERT_NE(edge_b, nullptr);
  ASSERT_EQ(edge_a->predicates.size(), 1u);
  ASSERT_EQ(edge_b->predicates.size(), 1u);
  // `a.loc = 3` and `x.loc = 3` do the same work; normalizing the bound
  // variable makes the canonical strings identical across the two queries.
  EXPECT_EQ(
      opt::CanonicalExprString(*edge_a->predicates[0], edge_a->var_index),
      opt::CanonicalExprString(*edge_b->predicates[0], edge_b->var_index));
}

TEST(ExprCanonTest, IsEventOnlyDistinguishesBindingDependence) {
  BikeSchema schema;
  const NfaPtr nfa = schema.Compile(kLocQuery);
  ASSERT_NE(nfa, nullptr);
  const Edge* req_edge =
      FindTakeEdge(*nfa, schema.registry.FindType("req"));
  const Edge* unlock_edge =
      FindTakeEdge(*nfa, schema.registry.FindType("unlock"));
  ASSERT_NE(req_edge, nullptr);
  ASSERT_NE(unlock_edge, nullptr);
  ASSERT_EQ(req_edge->predicates.size(), 1u);
  ASSERT_EQ(unlock_edge->predicates.size(), 1u);
  // `a.loc = 3` reads only the candidate event; `c.uid = a.uid` reaches back
  // into the run's binding for `a`, so it can never be a shared predicate.
  EXPECT_TRUE(opt::IsEventOnly(*req_edge->predicates[0], req_edge->var_index));
  EXPECT_FALSE(
      opt::IsEventOnly(*unlock_edge->predicates[0], unlock_edge->var_index));
  EXPECT_FALSE(opt::IsConstant(*req_edge->predicates[0]));
}

// --- dead-state / dead-edge elimination ------------------------------------

TEST(DsePassTest, FoldsTautologicalPredicate) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(
      &schema, {"PATTERN SEQ(req a, unlock c) WHERE 1 = 1, c.uid = a.uid "
                "WITHIN 5 min RETURN m(loc = a.loc)"});
  CEP_ASSERT_OK(opt::MakeDsePass()->Run(&ir));
  EXPECT_EQ(ir.stats.preds_folded, 1u);
  for (const State& state : ir.units[0].nfa->states()) {
    for (const Edge& edge : state.edges) {
      for (const Expr* pred : edge.predicates) {
        EXPECT_FALSE(opt::IsConstant(*pred)) << "tautology survived DSE";
      }
    }
  }
}

TEST(DsePassTest, FalseConstantKillsEdgeAndUnreachableStates) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(
      &schema, {"PATTERN SEQ(req a, unlock c) WHERE 1 = 2, c.uid = a.uid "
                "WITHIN 5 min RETURN m(loc = a.loc)"});
  const size_t states_before = ir.units[0].nfa->num_states();
  CEP_ASSERT_OK(opt::MakeDsePass()->Run(&ir));
  EXPECT_GE(ir.stats.edges_eliminated, 1u);
  EXPECT_GE(ir.stats.states_eliminated, 1u);
  EXPECT_LT(ir.units[0].nfa->num_states(), states_before);
  // The start state always survives, even for an unsatisfiable query.
  EXPECT_GE(ir.units[0].nfa->num_states(), 1u);
}

// --- cross-query CSE --------------------------------------------------------

TEST(CsePassTest, InternsStructurallyEqualPredicatesAcrossQueries) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(
      &schema,
      {"PATTERN SEQ(req a, unlock c) WHERE a.loc < 5, c.uid = a.uid "
       "WITHIN 5 min RETURN m(loc = a.loc)",
       "PATTERN SEQ(req x, unlock y) WHERE x.loc < 5, y.bid = 1 "
       "WITHIN 9 min RETURN other(loc = x.loc)"});
  CEP_ASSERT_OK(opt::MakeCsePass()->Run(&ir));
  // `a.loc < 5` and `x.loc < 5` intern to one id; `y.bid = 1` is its own.
  // `c.uid = a.uid` is binding-dependent and never enters the table.
  EXPECT_EQ(ir.preds.size(), 2u);
  EXPECT_GE(ir.preds.deduped(), 1u);
  const EventTypeId req = schema.registry.FindType("req");
  const Edge* e0 = FindTakeEdge(*ir.units[0].nfa, req);
  const Edge* e1 = FindTakeEdge(*ir.units[1].nfa, req);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  ASSERT_EQ(e0->shared_pred_ids.size(), 1u);
  ASSERT_EQ(e1->shared_pred_ids.size(), 1u);
  EXPECT_EQ(e0->shared_pred_ids[0], e1->shared_pred_ids[0]);
  EXPECT_GE(e0->shared_pred_ids[0], 0);

  const Edge* unlock0 =
      FindTakeEdge(*ir.units[0].nfa, schema.registry.FindType("unlock"));
  ASSERT_NE(unlock0, nullptr);
  ASSERT_EQ(unlock0->shared_pred_ids.size(), 1u);
  EXPECT_EQ(unlock0->shared_pred_ids[0], -1) << "binding-dependent predicate "
                                                "must stay local";
}

TEST(SharedPredTableTest, VerdictRowsMatchDirectEvaluation) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(&schema, {kLocQuery});
  CEP_ASSERT_OK(opt::MakeCsePass()->Run(&ir));
  ASSERT_EQ(ir.preds.size(), 1u);
  const EventPtr hit = schema.Req(1000, /*loc=*/3, /*uid=*/1);
  const EventPtr miss = schema.Req(2000, /*loc=*/4, /*uid=*/1);
  ir.preds.BeginEvent(*hit);
  const opt::SharedPredRow* row = ir.preds.RowFor(hit.get());
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdicts[0], opt::SharedPredTable::kTrue);
  ir.preds.BeginEvent(*miss);
  row = ir.preds.RowFor(miss.get());
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->verdicts[0], opt::SharedPredTable::kFalse);
  // The old event's row is gone after the next Begin call.
  EXPECT_EQ(ir.preds.RowFor(hit.get()), nullptr);
}

// --- shared-prefix merging --------------------------------------------------

TEST(PrefixMergeTest, IdenticalQueriesMergeDifferentReturnsDoNot) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(
      &schema, {kLocQuery, kLocQuery,
                // Same automaton shape but a different complex-event name:
                // consumers can tell the outputs apart, so no merge.
                "PATTERN SEQ(req a, unlock c) WHERE a.loc = 3, c.uid = a.uid "
                "WITHIN 5 min RETURN other(loc = a.loc, user = a.uid)"});
  CEP_ASSERT_OK(RunPipeline(&ir));
  EXPECT_EQ(ir.units[0].leader, 0u);
  EXPECT_EQ(ir.units[1].leader, 0u);
  EXPECT_EQ(ir.units[2].leader, 2u);
  EXPECT_EQ(ir.stats.queries_merged, 1u);
  EXPECT_EQ(ir.stats.merge_groups, 1u);
  EXPECT_EQ(opt::UnitMergeCanon(ir.units[0]), opt::UnitMergeCanon(ir.units[1]));
  EXPECT_NE(opt::UnitMergeCanon(ir.units[0]), opt::UnitMergeCanon(ir.units[2]));
}

TEST(PrefixMergeTest, ConfigAndMergeabilityBlockMerging) {
  BikeSchema schema;
  {
    // Same text, different engine configuration: results could diverge
    // (e.g. different selection strategy), so the units must not merge.
    opt::MultiQueryIr ir;
    ir.units.push_back(MakeUnit(&schema, kLocQuery, 0, /*fingerprint=*/1));
    ir.units.push_back(MakeUnit(&schema, kLocQuery, 1, /*fingerprint=*/2));
    CEP_ASSERT_OK(RunPipeline(&ir));
    EXPECT_EQ(ir.units[1].leader, 1u);
    EXPECT_EQ(ir.stats.queries_merged, 0u);
  }
  {
    // mergeable=false (MultiEngine clears it for shedder-bearing queries:
    // per-query shedder state cannot be shared).
    opt::MultiQueryIr ir = BuildIr(&schema, {kLocQuery, kLocQuery});
    ir.units[1].mergeable = false;
    CEP_ASSERT_OK(RunPipeline(&ir));
    EXPECT_EQ(ir.units[1].leader, 1u);
    EXPECT_EQ(ir.stats.queries_merged, 0u);
  }
}

// --- predicate pushdown -----------------------------------------------------

TEST(PushdownTest, DropsInertTypesAndGuardMisses) {
  BikeSchema schema;
  opt::MultiQueryIr ir = BuildIr(&schema, {kLocQuery});
  CEP_ASSERT_OK(RunPipeline(&ir));
  ASSERT_TRUE(ir.prefilter.safe);
  // No query consumes `avail` at all.
  const EventPtr avail = schema.Avail(1000, 3, 7);
  EXPECT_TRUE(ir.prefilter.ShouldDrop(*avail, ir.preds));
  // A req that fails every query's guard can never matter...
  const EventPtr miss = schema.Req(1000, /*loc=*/4, /*uid=*/1);
  EXPECT_TRUE(ir.prefilter.ShouldDrop(*miss, ir.preds));
  // ...but one that satisfies a guard must be kept, as must unlocks (their
  // edge predicate is binding-dependent, so ingestion cannot decide).
  const EventPtr hit = schema.Req(1000, /*loc=*/3, /*uid=*/1);
  EXPECT_FALSE(ir.prefilter.ShouldDrop(*hit, ir.preds));
  const EventPtr unlock = schema.Unlock(1000, 3, 1, 1);
  EXPECT_FALSE(ir.prefilter.ShouldDrop(*unlock, ir.preds));
}

TEST(PushdownTest, EngineSideFeaturesDisableThePrefilter) {
  BikeSchema schema;
  for (const int feature : {0, 1, 2, 3}) {
    opt::MultiQueryIr ir = BuildIr(&schema, {kLocQuery});
    switch (feature) {
      case 0: ir.units[0].has_shedder = true; break;
      case 1: ir.units[0].has_degradation = true; break;
      case 2: ir.units[0].has_latency_threshold = true; break;
      case 3: ir.units[0].selection = SelectionStrategy::kStrictContiguity;
              break;
    }
    CEP_ASSERT_OK(RunPipeline(&ir));
    EXPECT_FALSE(ir.prefilter.safe) << "feature " << feature;
    EXPECT_FALSE(ir.prefilter.ShouldDrop(*schema.Avail(1000, 3, 7), ir.preds))
        << "feature " << feature;
  }
}

// --- MultiEngine::Optimize end to end ---------------------------------------

class MultiEngineOptTest : public ::testing::Test {
 protected:
  /// The five-query panel: 0/1 identical (merge), 2 shares the `a.loc = 3`
  /// guard (CSE), 3 watches another zone, 4 has a different window.
  std::vector<std::string> Panel() const {
    return {kLocQuery, kLocQuery,
            "PATTERN SEQ(req a, unlock c) WHERE a.loc = 3, c.bid = 1 "
            "WITHIN 7 min RETURN near(loc = a.loc)",
            "PATTERN SEQ(req a, unlock c) WHERE a.loc = 1, c.uid = a.uid "
            "WITHIN 5 min RETURN m(loc = a.loc, user = a.uid)",
            "PATTERN SEQ(req a, unlock c) WHERE a.loc = 3, c.uid = a.uid "
            "WITHIN 2 min RETURN m(loc = a.loc, user = a.uid)"};
  }

  void Build(MultiEngine* multi, bool optimize) {
    for (const std::string& text : Panel()) {
      multi->AddQuery(schema_.Compile(text), Options());
    }
    if (optimize) CEP_ASSERT_OK(multi->Optimize());
  }

  static EngineOptions Options() {
    EngineOptions options;
    options.latency_mode = LatencyMode::kVirtualCost;
    return options;
  }

  static std::vector<std::vector<uint64_t>> Fingerprints(
      const MultiEngine& multi) {
    std::vector<std::vector<uint64_t>> out(multi.num_queries());
    for (size_t i = 0; i < multi.num_queries(); ++i) {
      for (const Match& m : multi.engine(i).matches()) {
        out[i].push_back(m.fingerprint);
      }
    }
    return out;
  }

  BikeSchema schema_;
};

TEST_F(MultiEngineOptTest, MatchesIdenticalToUnoptimizedFanOut) {
  const std::vector<EventPtr> events = MakeStream(&schema_, 600);
  MultiEngine plain;
  Build(&plain, false);
  MultiEngine optimized;
  Build(&optimized, true);
  EXPECT_EQ(plain.num_engines(), 5u);
  EXPECT_EQ(optimized.num_engines(), 4u) << "queries 0 and 1 should share";
  ASSERT_NE(optimized.ir(), nullptr);
  EXPECT_GT(optimized.ir()->preds.size(), 0u);
  EXPECT_TRUE(optimized.ir()->prefilter.safe);
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(plain.ProcessEvent(event));
    CEP_ASSERT_OK(optimized.ProcessEvent(event));
  }
  const auto expected = Fingerprints(plain);
  EXPECT_EQ(Fingerprints(optimized), expected);
  // The panel produces matches at all (otherwise this test proves nothing).
  size_t total = 0;
  for (const auto& per_query : expected) total += per_query.size();
  EXPECT_GT(total, 0u);
  EXPECT_GT(optimized.events_prefiltered(), 0u);
}

TEST_F(MultiEngineOptTest, OptimizeGuardsAgainstMisuse) {
  MultiEngine empty;
  EXPECT_TRUE(empty.Optimize().IsInvalidArgument());

  MultiEngine twice;
  Build(&twice, true);
  EXPECT_TRUE(twice.Optimize().IsInvalidArgument());

  MultiEngine started;
  Build(&started, false);
  CEP_ASSERT_OK(started.OfferEvent(schema_.Req(1000, 3, 1)));
  EXPECT_TRUE(started.Optimize().IsInvalidArgument());
}

TEST_F(MultiEngineOptTest, DuplicateQueryNamesExportUniqueMetricLabels) {
  MultiEngine multi;
  Build(&multi, true);  // queries 0/1/3/4 all RETURN "m"
  obs::Registry registry;
  multi.ExportMetrics(&registry);
  const std::string text = registry.ToPrometheusText();
  // Duplicated names get a stable "#<query-index>" suffix; unique names
  // stay unsuffixed.
  EXPECT_NE(text.find("query=\"m#0\""), std::string::npos) << text;
  EXPECT_NE(text.find("query=\"m#1\""), std::string::npos);
  EXPECT_NE(text.find("query=\"m#3\""), std::string::npos);
  EXPECT_NE(text.find("query=\"m#4\""), std::string::npos);
  EXPECT_NE(text.find("query=\"near\""), std::string::npos);
  EXPECT_EQ(text.find("query=\"m\""), std::string::npos);
  // The optimizer family is exported alongside.
  EXPECT_NE(text.find("cep_opt_queries"), std::string::npos);
  EXPECT_NE(text.find("cep_opt_engines"), std::string::npos);
  EXPECT_NE(text.find("cep_opt_queries_merged_total"), std::string::npos);
}

TEST_F(MultiEngineOptTest, OptimizedCheckpointRoundTrip) {
  const std::vector<EventPtr> events = MakeStream(&schema_, 400);

  // OfferEvent, not ProcessEvent: only the consuming API advances the
  // stream offset the snapshot records (restore skips exactly that many).
  MultiEngine straight;
  Build(&straight, true);
  for (const EventPtr& event : events) {
    CEP_ASSERT_OK(straight.OfferEvent(event));
  }

  MultiEngine writer;
  Build(&writer, true);
  std::string snapshot;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == events.size() / 2) {
      CEP_ASSERT_OK_AND_ASSIGN(snapshot, writer.SerializeSnapshot());
    }
    CEP_ASSERT_OK(writer.OfferEvent(events[i]));
  }

  MultiEngine resumed;
  Build(&resumed, true);
  CEP_ASSERT_OK(resumed.RestoreFromSnapshot(snapshot));
  EXPECT_EQ(resumed.stream_offset(), events.size() / 2);
  for (size_t i = events.size() / 2; i < events.size(); ++i) {
    CEP_ASSERT_OK(resumed.OfferEvent(events[i]));
  }
  EXPECT_EQ(Fingerprints(resumed), Fingerprints(straight));
  EXPECT_EQ(resumed.events_prefiltered(), straight.events_prefiltered());
}

TEST_F(MultiEngineOptTest, SnapshotModeMismatchIsTypedError) {
  MultiEngine optimized;
  Build(&optimized, true);
  CEP_ASSERT_OK_AND_ASSIGN(const std::string opt_snapshot,
                           optimized.SerializeSnapshot());

  MultiEngine plain;
  Build(&plain, false);
  const Status into_plain = plain.RestoreFromSnapshot(opt_snapshot);
  EXPECT_TRUE(into_plain.IsInvalidArgument());
  EXPECT_NE(into_plain.ToString().find("Optimize"), std::string::npos)
      << into_plain.ToString();

  CEP_ASSERT_OK_AND_ASSIGN(const std::string plain_snapshot,
                           plain.SerializeSnapshot());
  MultiEngine optimized2;
  Build(&optimized2, true);
  EXPECT_TRUE(
      optimized2.RestoreFromSnapshot(plain_snapshot).IsInvalidArgument());
}

TEST_F(MultiEngineOptTest, DigestMismatchRefusesForeignLayout) {
  // [X, X, Y] and [X, Y, Y] rebuild to the same physical engine sequence
  // (X-leader, Y-leader) with the same query count, so the per-engine
  // restores succeed — only the embedded optimizer digest (which hashes the
  // merge mapping) can tell the layouts apart.
  const std::string x = kLocQuery;
  const std::string y =
      "PATTERN SEQ(req a, unlock c) WHERE a.loc = 1, c.uid = a.uid "
      "WITHIN 5 min RETURN m(loc = a.loc, user = a.uid)";
  MultiEngine xxy;
  for (const std::string& text : {x, x, y}) {
    xxy.AddQuery(schema_.Compile(text), Options());
  }
  CEP_ASSERT_OK(xxy.Optimize());
  CEP_ASSERT_OK_AND_ASSIGN(const std::string snapshot,
                           xxy.SerializeSnapshot());

  MultiEngine xyy;
  for (const std::string& text : {x, y, y}) {
    xyy.AddQuery(schema_.Compile(text), Options());
  }
  CEP_ASSERT_OK(xyy.Optimize());
  ASSERT_EQ(xyy.num_engines(), 2u);
  const Status restored = xyy.RestoreFromSnapshot(snapshot);
  EXPECT_TRUE(restored.IsInvalidArgument());
  EXPECT_NE(restored.ToString().find("digest"), std::string::npos)
      << restored.ToString();
}

TEST(FingerprintTest, ExcludesExecutionLayoutOptions) {
  EngineOptions base;
  const uint64_t digest = opt::FingerprintEngineOptions(base);

  // Arena/batch/checkpoint settings never change results, so they must not
  // affect merge eligibility.
  EngineOptions layout = base;
  layout.arena_block_runs = 64;
  layout.batch_size = 64;
  layout.checkpoint.interval_events = 7;
  EXPECT_EQ(opt::FingerprintEngineOptions(layout), digest);

  // Semantics-bearing options must.
  EngineOptions strict = base;
  strict.selection = SelectionStrategy::kStrictContiguity;
  EXPECT_NE(opt::FingerprintEngineOptions(strict), digest);
  EngineOptions theta = base;
  theta.latency_threshold_micros = 50.0;
  EXPECT_NE(opt::FingerprintEngineOptions(theta), digest);
}

}  // namespace
}  // namespace cep
