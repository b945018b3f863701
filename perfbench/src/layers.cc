#include "layers.h"

#include <algorithm>
#include <numeric>

#include "align/view_context.h"
#include "graph/feature.h"
#include "learn/mira.h"
#include "persist/snapshot.h"
#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/query_graph.h"
#include "query/ranked_union.h"
#include "relational/catalog.h"
#include "steiner/fast_solver.h"
#include "steiner/top_k.h"

namespace perfbench {
namespace {

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMinCoverage = 0.9;
constexpr double kMaxCoverage = 1.5;

}  // namespace

CoreCounters CoreCounters::Read(const q::core::QSystem& q) {
  CoreCounters c;
  c.refresh = q.refresh_engine().stats();
  if (q.async_scheduler() != nullptr) c.async = q.async_scheduler()->stats();
  return c;
}

void CoreDelta::Add(const CoreCounters& before, const CoreCounters& after) {
  const auto& b = before.refresh;
  const auto& a = after.refresh;
  auto d = [](std::size_t x, std::size_t y) {
    return static_cast<double>(y) - static_cast<double>(x);
  };
  searches += d(b.searches_run, a.searches_run);
  irrelevant_skips += d(b.views_skipped_irrelevant, a.views_skipped_irrelevant);
  relevance_checks += d(b.relevance_checks, a.relevance_checks);
  delta_recosts += d(b.views_delta_recost, a.views_delta_recost);
  full_recosts += d(b.views_full_recost, a.views_full_recost);
  edges_repriced += d(b.edges_repriced, a.edges_repriced);
  sp_retained += d(b.sp_cache_entries_retained, a.sp_cache_entries_retained);
  sp_dropped += d(b.sp_cache_entries_dropped, a.sp_cache_entries_dropped);
  snapshots_built += d(b.snapshots_built, a.snapshots_built);
  repairs_run += d(before.async.repairs_run, after.async.repairs_run);
  structural_skips +=
      d(before.async.structural_skips, after.async.structural_skips);
  structural_rebuilds +=
      d(before.async.structural_rebuilds, after.async.structural_rebuilds);
}

bool LayerProbe::ReplayView(q::core::QSystem& q, std::size_t id,
                            std::string* why) {
  const q::query::TopKView& view = q.view(id);
  const q::core::QSystemConfig& config = q.config();
  ScopedSpan replay(tracer_, "replay.create_view");

  q::util::Result<q::query::QueryGraph> built = [&] {
    ScopedSpan span(tracer_, "query.build_graph");
    return q::query::BuildQueryGraph(q.search_graph(), q.text_index(),
                                     view.keywords(), &q.cost_model(),
                                     q.weights(), config.view.query_graph);
  }();
  if (!built.ok()) {
    *why = "replayed BuildQueryGraph failed: " + built.status().ToString();
    return false;
  }
  const q::query::QueryGraph& qg = *built;
  graph_nodes_.push_back(static_cast<double>(qg.graph.num_nodes()));

  q::steiner::TopKConfig topk = config.view.top_k;
  topk.pool = nullptr;
  topk.sharded.enabled = false;
  std::vector<q::steiner::SteinerTree> trees;
  {
    std::unique_ptr<q::steiner::FastSteinerEngine> engine;
    {
      ScopedSpan span(tracer_, "steiner.csr_build");
      engine = std::make_unique<q::steiner::FastSteinerEngine>(
          qg.graph, q.weights(), /*use_cache=*/true);
    }
    q::steiner::RelevanceCertificate certificate;
    {
      ScopedSpan span(tracer_, "steiner.topk");
      trees = q::steiner::TopKSteinerTrees(qg.graph, q.weights(),
                                           qg.keyword_nodes, topk,
                                           engine.get(), &certificate);
    }
    const q::steiner::FastSolveStats cold = engine->stats();
    ++searches_;
    sp_trees_built_ += cold.sp_cache_misses;
    const bool exact = !topk.approximate &&
                       qg.graph.num_nodes() <= topk.approximate_above_nodes;
    if (exact && !certificate.valid) ++truncated_;
    {
      // The warm re-search a repeated QueryView runs on the same engine.
      ScopedSpan span(tracer_, "steiner.topk_warm");
      q::steiner::TopKSteinerTrees(qg.graph, q.weights(), qg.keyword_nodes,
                                   topk, engine.get());
    }
    const q::steiner::FastSolveStats warm = engine->stats();
    sp_hits_ += warm.sp_cache_hits;
    sp_lookups_ += warm.sp_cache_hits + warm.sp_cache_misses;
  }
  {
    // The top-k as CreateView runs it, on the system's pool and with its
    // sharding, recording the relevance certificate. With the build, CSR,
    // execute and certificate spans it accounts for the measured
    // CreateView time (trace.create_view_coverage).
    q::steiner::FastSteinerEngine engine(qg.graph, q.weights(), true);
    q::steiner::RelevanceCertificate certificate;
    ScopedSpan span(tracer_, "steiner.topk_system");
    q::steiner::TopKSteinerTrees(qg.graph, q.weights(), qg.keyword_nodes,
                                 config.view.top_k, &engine, &certificate);
  }
  {
    q::steiner::TopKConfig sharded = topk;
    sharded.sharded.enabled = true;
    q::steiner::FastSteinerEngine engine(qg.graph, q.weights(), true);
    {
      ScopedSpan span(tracer_, "steiner.topk_sharded");
      q::steiner::TopKSteinerTrees(qg.graph, q.weights(), qg.keyword_nodes,
                                   sharded, &engine);
    }
    const q::steiner::FastSolveStats stats = engine.stats();
    sp_local_hits_ += stats.sp_local_hits;
    sp_local_lookups_ += stats.sp_local_hits + stats.sp_local_misses;
    masked_bypasses_ += stats.masked_bypasses;
  }
  {
    ScopedSpan span(tracer_, "query.execute");
    q::query::Executor executor(&q.catalog(), config.view.executor);
    std::vector<q::query::ConjunctiveQuery> queries;
    std::vector<std::vector<q::relational::Row>> rows;
    for (const q::steiner::SteinerTree& tree : trees) {
      auto cq = q::query::CompileTree(qg, tree, q.weights());
      if (!cq.ok()) {
        *why = "replayed CompileTree failed: " + cq.status().ToString();
        return false;
      }
      auto executed = executor.Execute(*cq);
      rows.push_back(executed.ok() ? std::move(executed).value()
                                   : std::vector<q::relational::Row>{});
      queries.push_back(std::move(cq).value());
    }
    q::query::DisjointUnion(qg, q.weights(), queries, rows,
                            config.view.union_similarity_threshold);
  }

  if (trees.size() == static_cast<std::size_t>(topk.k) &&
      !qg.keyword_nodes.empty()) {
    // The structural certificate's anchor ball: a Dijkstra from the first
    // terminal out to twice the k-th tree cost.
    ScopedSpan span(tracer_, "query.certificate");
    q::graph::DistanceField field;
    qg.graph.Dijkstra({{qg.keyword_nodes.front(), 0.0}}, q.weights(),
                      2.0 * trees.back().cost + 1.0, &field);
  }

  const auto published = view.Snapshot();
  if (published->trees.size() != trees.size()) {
    *why = "replayed top-k of view " + std::to_string(id) + " returned " +
           std::to_string(trees.size()) + " trees, the view published " +
           std::to_string(published->trees.size());
    return false;
  }
  for (std::size_t i = 0; i < trees.size(); ++i) {
    if (trees[i].cost != published->trees[i].cost) {
      *why = "replayed tree " + std::to_string(i) + " of view " +
             std::to_string(id) + " costs differ from the published tree";
      return false;
    }
  }
  return true;
}

void LayerProbe::ReplayKeywordMatch(const q::core::QSystem& q) {
  for (std::size_t id = 0; id < q.num_views(); ++id) {
    ScopedSpan span(tracer_, "text.keyword_match");
    q::query::KeywordMatchFingerprint(q.text_index(), q.view(id).keywords(),
                                      q.config().view.query_graph);
  }
}

void LayerProbe::ReplayMira(const q::core::QSystem& q, std::size_t id,
                            std::size_t tree_index) {
  if (!enabled()) return;
  const auto state = q.ReadView(id).state;
  if (tree_index >= state->trees.size()) return;
  const q::steiner::SteinerTree& endorsed = state->trees[tree_index];
  const q::query::QueryGraph& qg = q.view(id).query_graph();
  q::graph::WeightVector weights = q.weights();
  q::learn::MiraLearner learner(q.config().mira);
  ScopedSpan span(tracer_, "learn.mira_update");
  auto info = learner.Update(qg.graph, qg.keyword_nodes, endorsed, &weights);
  if (info.ok()) {
    features_touched_.push_back(static_cast<double>(info->features_touched));
  }
}

void LayerProbe::ReplayAlign(q::core::QSystem& q,
                             const q::relational::DataSource& source) {
  q::align::AlignerStats stats;
  q::align::ViewBasedAligner aligner;
  std::vector<q::match::Matcher*> matchers;
  if (q.config().use_metadata_matcher) matchers.push_back(q.metadata_matcher());
  if (q.config().use_mad_matcher) matchers.push_back(q.mad_matcher());
  ScopedSpan span(tracer_, "align.align");
  for (std::size_t id = 0; id < q.num_views(); ++id) {
    const q::query::TopKView& view = q.view(id);
    if (!view.refreshed()) continue;
    const q::align::AlignContext context = q::align::ContextFromView(
        view, q.search_graph(), q.feature_space(), q.weights(),
        q.config().top_y, q.config().preferential_budget);
    for (q::match::Matcher* matcher : matchers) {
      (void)aligner.Align(q.search_graph(), q.weights(), q.catalog(), source,
                          context, matcher, &stats);
    }
  }
}

void LayerProbe::ReplayPersist(const q::core::QSystem& q) {
  std::string catalog, space, graph, weights, feedback;
  {
    ScopedSpan span(tracer_, "persist.encode");
    catalog = q::persist::EncodeCatalog(q.catalog());
    space = q::persist::EncodeFeatureSpace(
        const_cast<q::core::QSystem&>(q).feature_space());
    graph = q::persist::EncodeGraph(q.search_graph());
    weights = q::persist::EncodeWeights(q.weights());
    feedback = q::persist::EncodeFeedback(q.feedback_log());
  }
  snapshot_bytes_.push_back(
      static_cast<double>(catalog.size() + space.size() + graph.size() +
                          weights.size() + feedback.size()));
  ScopedSpan span(tracer_, "persist.decode");
  q::relational::Catalog decoded_catalog;
  q::graph::FeatureSpace decoded_space;
  q::graph::SearchGraph decoded_graph;
  (void)q::persist::DecodeCatalog(catalog, &decoded_catalog);
  (void)q::persist::DecodeFeatureSpace(space, &decoded_space);
  (void)q::persist::DecodeGraph(graph, decoded_space.size(), &decoded_graph);
  q::graph::WeightVector decoded_weights(&decoded_space);
  (void)q::persist::DecodeWeights(weights, decoded_space.size(),
                                  &decoded_weights);
  q::feedback::FeedbackLog decoded_log;
  (void)q::persist::DecodeFeedback(feedback, &decoded_log);
}

void LayerProbe::AddFeedback(const CoreCounters& before,
                             const CoreCounters& after) {
  ++feedbacks_;
  fb_.Add(before, after);
}

void LayerProbe::AddRegister(const CoreCounters& before,
                             const CoreCounters& after) {
  ++registers_;
  reg_.Add(before, after);
}

void LayerProbe::AddAlignerStats(const q::align::AlignerStats& stats) {
  ++aligned_sources_;
  attribute_comparisons_ += stats.attribute_comparisons;
  matcher_calls_ += stats.matcher_calls;
}

void LayerProbe::Emit(bool gate_coverage, Report* report) const {
  const Tracer& t = *tracer_;
  const double fb = static_cast<double>(feedbacks_);
  const double reg = static_cast<double>(registers_);
  const double ss = static_cast<double>(searches_);
  report->Add("steiner.topk_ms", Median(t.SelfMs("steiner.topk")), "ms");
  report->Add("steiner.csr_build_ms", Median(t.SelfMs("steiner.csr_build")),
              "ms");
  report->Add("steiner.sp_trees_built",
              Ratio(static_cast<double>(sp_trees_built_), ss), "count");
  report->Add("steiner.sp_cache_hit_rate",
              Ratio(static_cast<double>(sp_hits_),
                    static_cast<double>(sp_lookups_)),
              "ratio");
  report->Add("steiner.sp_local_hit_rate",
              Ratio(static_cast<double>(sp_local_hits_),
                    static_cast<double>(sp_local_lookups_)),
              "ratio");
  report->Add("steiner.sp_local_lookups",
              Ratio(static_cast<double>(sp_local_lookups_), ss), "count");
  report->Add("steiner.masked_bypasses", static_cast<double>(masked_bypasses_),
              "count");
  report->Add("steiner.truncated_searches", static_cast<double>(truncated_),
              "count");
  report->Add("query.build_graph_ms", Median(t.SelfMs("query.build_graph")),
              "ms");
  report->Add("query.graph_nodes", Median(graph_nodes_), "count");
  report->Add("query.execute_ms", Median(t.SelfMs("query.execute")), "ms");
  report->Add("text.keyword_match_ms",
              Median(t.SelfMs("text.keyword_match")), "ms");
  report->Add("learn.mira_update_ms", Median(t.SelfMs("learn.mira_update")),
              "ms");
  report->Add("learn.features_touched", Mean(features_touched_), "count");
  report->Add("core.searches_per_feedback", Ratio(fb_.searches, fb), "count");
  report->Add("core.relevance_skip_rate",
              Ratio(fb_.irrelevant_skips, fb_.relevance_checks), "ratio");
  report->Add("core.delta_recost_share",
              Ratio(fb_.delta_recosts, fb_.delta_recosts + fb_.full_recosts),
              "ratio");
  report->Add("core.edges_repriced_per_feedback",
              Ratio(fb_.edges_repriced, fb), "count");
  report->Add("core.sp_cache_retained_share",
              Ratio(fb_.sp_retained, fb_.sp_retained + fb_.sp_dropped),
              "ratio");
  report->Add("core.repairs_per_feedback", Ratio(fb_.repairs_run, fb),
              "count");
  report->Add("core.views_rebuilt_per_register",
              Ratio(reg_.snapshots_built, reg), "count");
  report->Add("core.structural_skip_rate",
              Ratio(reg_.structural_skips,
                    reg_.structural_skips + reg_.structural_rebuilds),
              "ratio");
  report->Add("core.structural_rebuilds_per_register",
              Ratio(reg_.structural_rebuilds, reg), "count");
  report->Add("core.drain_ms", Median(t.SelfMs("core.drain")), "ms");
  report->Add("core.heap_per_view_mb", Median(heap_per_view_), "MiB");
  report->Add("align.align_ms", Median(t.SelfMs("align.align")), "ms");
  const double aligned = static_cast<double>(aligned_sources_);
  report->Add("align.attribute_comparisons_per_register",
              Ratio(static_cast<double>(attribute_comparisons_), aligned),
              "count");
  report->Add("align.matcher_calls_per_register",
              Ratio(static_cast<double>(matcher_calls_), aligned), "count");
  report->Add("persist.encode_ms", Median(t.SelfMs("persist.encode")), "ms");
  report->Add("persist.decode_ms", Median(t.SelfMs("persist.decode")), "ms");
  report->Add("persist.snapshot_bytes", Median(snapshot_bytes_), "bytes");
  report->Add("persist.restore_ms", Median(t.SelfMs("op.restore")), "ms");
  const double replayed = t.TotalMs("query.build_graph") +
                          t.TotalMs("steiner.csr_build") +
                          t.TotalMs("steiner.topk_system") +
                          t.TotalMs("query.execute") +
                          t.TotalMs("query.certificate");
  const double coverage = Ratio(replayed, create_view_ms_);
  report->Add("trace.create_view_coverage", coverage, "ratio");
  // The replayed layers must explain the CreateView time they replay: a
  // share below 0.9 means a layer is missing from the replay, one far
  // above 1 that the replay does different work.
  if (gate_coverage && create_view_ms_ > 0.0 &&
      (coverage < kMinCoverage || coverage > kMaxCoverage)) {
    report->Diverged("trace.create_view_coverage " +
                     std::to_string(coverage) + " is outside [" +
                     std::to_string(kMinCoverage) + ", " +
                     std::to_string(kMaxCoverage) + "]");
  }
}

}  // namespace perfbench
