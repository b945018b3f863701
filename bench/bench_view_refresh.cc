// Batched view refresh vs N independent refreshes (the feedback loop's
// hot path): after a weight-only update, the RefreshEngine re-costs each
// view's CSR snapshot in place and skips query-graph re-expansion, while
// the independent path re-copies the search graph, re-runs text-index
// matching, and re-extracts CSR topology per view. Measures both on a
// GBCO search graph grown with synthetic sources (the Sec. 5.1.2 scaling
// setup) and verifies the outputs are bit-identical before timing.
//
// Also measures the feedback-delta scenario: a sparse MIRA-style update
// touching <1% of features, applied to the same views once through the
// delta re-cost pipeline (feature->edge postings + RecostDelta +
// selective SP-cache invalidation) and once through the wholesale
// in-place Recost (forced by truncating the weight journal), so the two
// kernels isolate exactly the delta-vs-full re-cost strategy.
//
// Also measures the feedback-ack scenario (the async refresh contract):
// 64 open views, one user's MIRA endorsement per round; synchronous mode
// repairs every affected view before ApplyFeedback returns, async mode
// returns after journal append + relevance classification and repairs in
// the background. The ack-latency ratio should track roughly
// #affected / #total views. Quiescent async output is verified
// bit-identical to the synchronous twin before timing.
//
// Emits JSON lines to --json=PATH (default
// bench/out/BENCH_view_refresh.json):
//   {"kernel":"view_refresh_independent_8","n":...,"median_us":...}
//   {"kernel":"view_refresh_batched_8","n":...,"median_us":...}
//   {"kernel":"view_refresh_speedup","n":8,"ratio":...}
//   {"kernel":"view_refresh_full_recost_8","n":...,"median_us":...}
//   {"kernel":"view_refresh_delta_recost_8","n":...,"median_us":...}
//   {"kernel":"view_refresh_delta_speedup","n":8,"ratio":...}
//   {"kernel":"view_refresh_unscoped_64","n":...,"median_us":...}
//   {"kernel":"view_refresh_scoped_64","n":...,"median_us":...}
//   {"kernel":"view_refresh_relevance_speedup","n":64,"ratio":...}
//   {"kernel":"feedback_ack_sync_64","n":...,"median_us":...}
//   {"kernel":"feedback_ack_async_64","n":...,"median_us":...}
//   {"kernel":"feedback_ack_speedup","n":64,"ratio":...}
// Exits non-zero if batched/delta/async and reference outputs diverge.
//
// Usage: bench_view_refresh [--json=PATH] [--smoke] [--views=N]
//        [--synthetic=N]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/q_system.h"
#include "core/refresh_engine.h"
#include "data/gbco.h"
#include "data/synthetic.h"
#include "graph/graph_builder.h"
#include "query/view.h"
#include "steiner/top_k.h"
#include "text/text_index.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

bool g_smoke = false;

double MedianMicros(const std::function<void()>& fn, int max_reps = 15) {
  q::util::WallTimer warmup;
  fn();
  double warmup_us = warmup.ElapsedMicros();
  double budget_us = g_smoke ? 3e5 : 2e6;
  int reps =
      warmup_us > 0.0 ? static_cast<int>(budget_us / warmup_us) : max_reps;
  reps = std::max(3, std::min(reps, g_smoke ? 5 : max_reps));
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    q::util::WallTimer timer;
    fn();
    us.push_back(timer.ElapsedMicros());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

struct WorkloadOptions {
  std::size_t num_views = 8;
  std::size_t synthetic_sources = 2000;
  std::size_t base_rows = 400;
  // Exact DP substrate instead of KMB: slower searches, but enumerations
  // emit valid relevance certificates (the alpha-neighborhood gate only
  // certifies provably-exact output; see docs/query_engine.md).
  bool exact = false;
  // Trial index per view, cycled when shorter than num_views.
  std::vector<std::size_t> trial_plan = {0, 1, 2, 3, 5, 6, 0, 2};
};

// The refresh workload: a GBCO catalog grown with synthetic sources, N
// persistent views over the trial keyword queries, and a RefreshEngine
// holding one CSR snapshot per view.
struct Workload {
  q::relational::Catalog catalog;
  q::graph::FeatureSpace space;
  std::unique_ptr<q::graph::CostModel> model;
  q::graph::SearchGraph graph;
  std::unique_ptr<q::graph::WeightVector> weights;
  q::text::TextIndex index;
  std::unique_ptr<q::util::ThreadPool> pool;
  std::vector<std::unique_ptr<q::query::TopKView>> views;
  q::core::RefreshEngine engine;

  explicit Workload(const WorkloadOptions& opt) {
    q::data::GbcoConfig config;
    // More rows per relation = a proportionally bigger text index, which
    // is what the per-view query-graph re-expansion pays for and the
    // batched weight-only path skips.
    config.base_rows = opt.base_rows;
    auto dataset = q::data::BuildGbco(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(catalog.AddSource(src));
    }
    model = std::make_unique<q::graph::CostModel>(&space,
                                                  q::graph::CostModelConfig{});
    graph = q::graph::BuildSearchGraph(catalog, model.get());
    weights = std::make_unique<q::graph::WeightVector>(&space);
    index.IndexCatalog(catalog);

    q::util::Rng rng(2010);
    Q_CHECK_OK(q::data::GrowWithSyntheticSources(
        opt.synthetic_sources, q::data::SyntheticGrowthOptions{}, &rng,
        &catalog, model.get(), &graph));

    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1) {
      pool = std::make_unique<q::util::ThreadPool>(static_cast<int>(hw));
      engine.set_pool(pool.get());
    }

    q::query::ViewConfig vconfig;
    vconfig.top_k.k = 3;
    // Large grown graphs are the KMB regime (Sec. 2.2); the exact DP at
    // this scale would swamp the refresh loop we are measuring. The
    // subproblem cap bounds Lawler's tail on degenerate tie-heavy
    // queries, which would otherwise measure enumeration churn rather
    // than the refresh substrate; both refresh paths share the config, so
    // the comparison is unaffected. Exact mode (the relevance-gating
    // scenario) keeps the default cap: a truncated enumeration cannot
    // certify, and the gate is the thing under test.
    vconfig.top_k.approximate = !opt.exact;
    if (!opt.exact) vconfig.top_k.max_subproblems = 400;
    vconfig.query_graph.max_matches_per_keyword = 6;
    vconfig.top_k.pool = pool.get();
    // Well-conditioned trial queries (interactive-latency searches; the
    // repeats model distinct users sharing an information need, which is
    // exactly the multi-view traffic batched refresh is for).
    for (std::size_t i = 0; views.size() < opt.num_views; ++i) {
      const auto& keywords =
          dataset.trials[opt.trial_plan[i % opt.trial_plan.size()]].keywords;
      auto view = std::make_unique<q::query::TopKView>(keywords, vconfig);
      Q_CHECK_OK(view->Refresh(graph, catalog, index, model.get(), *weights));
      engine.RegisterView(view.get());
      views.push_back(std::move(view));
    }
    // Build every snapshot once so timed batched rounds exercise the
    // steady state (re-cost), not first-touch construction.
    Q_CHECK_OK(engine.RefreshAll(graph, catalog, index, model.get(),
                                 *weights));
  }

  // The weight-only update between refreshes (a MIRA-step stand-in):
  // alternate nudges keep costs positive and bounded while guaranteeing
  // the weight revision moves every round.
  void NudgeWeights(int round) {
    weights->Nudge(q::graph::FeatureSpace::kDefaultFeature,
                   (round % 2 == 0) ? 0.01 : -0.01);
  }

  // Features carried by at most two base edges each — the shape of a
  // sparse MIRA step (the handful of per-edge features on the endorsed
  // and competing trees). Well under 1% of the feature space.
  std::vector<q::graph::FeatureId> PickSparseFeatures(std::size_t want) {
    std::vector<std::uint32_t> edge_count(space.size(), 0);
    for (q::graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      for (const auto& [id, value] : graph.edge_features(e).entries()) {
        ++edge_count[id];
      }
    }
    std::vector<q::graph::FeatureId> picked;
    for (q::graph::FeatureId f = 1;
         f < edge_count.size() && picked.size() < want; ++f) {
      if (edge_count[f] >= 1 && edge_count[f] <= 2) picked.push_back(f);
    }
    return picked;
  }

  // Sparse update: small always-positive nudges, so most shortest-path
  // cache entries are provably retainable under the delta pipeline's
  // selective invalidation (a cost increase of a non-tree edge keeps the
  // tree valid).
  void NudgeSparseWeights(const std::vector<q::graph::FeatureId>& features) {
    for (q::graph::FeatureId f : features) weights->Nudge(f, 0.004);
  }

  void RefreshBatched() {
    Q_CHECK_OK(engine.RefreshAll(graph, catalog, index, model.get(),
                                 *weights));
  }

  void RefreshIndependent() {
    for (const auto& view : views) {
      Q_CHECK_OK(view->Refresh(graph, catalog, index, model.get(),
                               *weights));
    }
  }
};

struct ViewState {
  std::vector<q::steiner::SteinerTree> trees;
  std::vector<q::query::ResultRow> rows;
};

std::vector<ViewState> Capture(const Workload& w) {
  std::vector<ViewState> states;
  for (const auto& view : w.views) {
    states.push_back(ViewState{view->trees(), view->results().rows});
  }
  return states;
}

bool SameStates(const std::vector<ViewState>& a,
                const std::vector<ViewState>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v].trees.size() != b[v].trees.size()) return false;
    for (std::size_t i = 0; i < a[v].trees.size(); ++i) {
      if (a[v].trees[i].edges != b[v].trees[i].edges) return false;
      if (a[v].trees[i].cost != b[v].trees[i].cost) return false;
    }
    if (a[v].rows.size() != b[v].rows.size()) return false;
    for (std::size_t i = 0; i < a[v].rows.size(); ++i) {
      if (a[v].rows[i].cost != b[v].rows[i].cost) return false;
      if (a[v].rows[i].query_index != b[v].rows[i].query_index) return false;
      if (!(a[v].rows[i].values == b[v].rows[i].values)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "bench/out/BENCH_view_refresh.json";
  std::size_t num_views = 8;
  std::size_t synthetic = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strncmp(argv[i], "--views=", 8) == 0) {
      num_views = static_cast<std::size_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--synthetic=", 12) == 0) {
      synthetic = static_cast<std::size_t>(std::atoi(argv[i] + 12));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--smoke] [--views=N] "
                   "[--synthetic=N]\n",
                   argv[0]);
      return 2;
    }
  }

  WorkloadOptions wopt;
  wopt.num_views = num_views;
  wopt.synthetic_sources = synthetic;
  Workload w(wopt);
  std::printf("graph: %zu nodes, %zu edges, %zu views\n",
              w.graph.num_nodes(), w.graph.num_edges(), w.views.size());

  // Correctness gate first: after a weight update, batched output must be
  // bit-identical to the independent reference.
  w.NudgeWeights(0);
  w.RefreshBatched();
  auto batched_states = Capture(w);
  w.RefreshIndependent();
  auto independent_states = Capture(w);
  bool ok = SameStates(batched_states, independent_states);
  if (!ok) {
    std::printf("MISMATCH: batched refresh differs from independent\n");
  }

  FILE* json = q::bench::OpenBenchJson(json_path);
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path);
    return 2;
  }
  auto emit = [&](const std::string& kernel, std::size_t n, double median) {
    std::printf("%-28s n=%-7zu median_us=%12.1f\n", kernel.c_str(), n,
                median);
    std::fprintf(json, "{\"kernel\":\"%s\",\"n\":%zu,\"median_us\":%.3f}\n",
                 kernel.c_str(), n, median);
    std::fflush(json);
  };

  // Every timed round includes one weight nudge so each refresh really
  // re-costs (a no-op refresh would measure the skip path instead).
  int round = 0;
  std::string suffix = "_" + std::to_string(w.views.size());
  double independent_us = MedianMicros([&] {
    w.NudgeWeights(round++);
    w.RefreshIndependent();
  });
  emit("view_refresh_independent" + suffix, w.graph.num_nodes(),
       independent_us);
  double batched_us = MedianMicros([&] {
    w.NudgeWeights(round++);
    w.RefreshBatched();
  });
  emit("view_refresh_batched" + suffix, w.graph.num_nodes(), batched_us);

  double ratio = batched_us > 0.0 ? independent_us / batched_us : 0.0;
  std::printf("%-28s speedup=%.2fx (independent/batched), output %s\n",
              ("view_refresh_speedup" + suffix).c_str(), ratio,
              ok ? "verified identical" : "MISMATCH");
  std::fprintf(json, "{\"kernel\":\"view_refresh_speedup\",\"n\":%zu,"
               "\"ratio\":%.3f}\n",
               w.views.size(), ratio);

  // --- feedback-delta scenario: sparse update, delta vs full re-cost ------
  auto sparse = w.PickSparseFeatures(5);
  Q_CHECK_MSG(!sparse.empty(), "no sparse features found in the graph");
  std::printf("sparse update: %zu features out of %zu (%.2f%%)\n",
              sparse.size(), w.space.size(),
              100.0 * static_cast<double>(sparse.size()) /
                  static_cast<double>(w.space.size()));

  // Correctness gate: a delta-refreshed batch must match the independent
  // reference after the same sparse update — and must actually have taken
  // the delta classification, not a wholesale fallback.
  auto stats_before = w.engine.stats();
  std::size_t delta_before =
      stats_before.views_delta_recost + stats_before.views_skipped_delta;
  std::size_t full_before = stats_before.views_full_recost;
  w.NudgeSparseWeights(sparse);
  w.RefreshBatched();
  Q_CHECK_MSG(w.engine.stats().views_delta_recost +
                      w.engine.stats().views_skipped_delta >
                  delta_before,
              "sparse update did not take the delta re-cost path");
  auto delta_states = Capture(w);
  w.RefreshIndependent();
  bool delta_ok = SameStates(delta_states, Capture(w));
  if (!delta_ok) {
    std::printf("MISMATCH: delta refresh differs from independent\n");
    ok = false;
  }

  double delta_us = MedianMicros([&] {
    w.NudgeSparseWeights(sparse);
    w.RefreshBatched();
  });
  emit("view_refresh_delta_recost" + suffix, w.graph.num_nodes(), delta_us);

  // Same sparse update, but with the weight journal truncated below the
  // per-round mutation count the classification deterministically falls
  // back to the wholesale in-place Recost (and its generation-bumped,
  // cold shortest-path cache) — the pre-delta behavior.
  w.weights->set_max_journal_entries(2);
  w.NudgeSparseWeights(sparse);
  w.RefreshBatched();
  Q_CHECK_MSG(w.engine.stats().views_full_recost > full_before,
              "journal truncation did not force the full re-cost path");
  double full_us = MedianMicros([&] {
    w.NudgeSparseWeights(sparse);
    w.RefreshBatched();
  });
  emit("view_refresh_full_recost" + suffix, w.graph.num_nodes(), full_us);

  double delta_ratio = delta_us > 0.0 ? full_us / delta_us : 0.0;
  std::printf("%-28s speedup=%.2fx (full/delta), output %s\n",
              ("view_refresh_delta_speedup" + suffix).c_str(), delta_ratio,
              delta_ok ? "verified identical" : "MISMATCH");
  auto stats = w.engine.stats();
  std::printf("delta pipeline: %zu delta re-costs, %zu delta skips, %zu "
              "full re-costs, %zu edges repriced, %zu cache entries "
              "retained / %zu dropped\n",
              stats.views_delta_recost, stats.views_skipped_delta,
              stats.views_full_recost, stats.edges_repriced,
              stats.sp_cache_entries_retained,
              stats.sp_cache_entries_dropped);
  std::fprintf(json, "{\"kernel\":\"view_refresh_delta_speedup\",\"n\":%zu,"
               "\"ratio\":%.3f}\n",
               w.views.size(), delta_ratio);

  // --- relevance-scoped refresh: 64 views, sparse feedback touching ~2 ----
  // The serving shape the alpha-neighborhood gate exists for: many open
  // views, a feedback step whose repriced edges matter to only a couple of
  // them. PR 3 delta-recost still re-searches every view whose snapshot
  // repriced anything (every query graph copies every base edge, so a base
  // feature touches all of them); the relevance gate re-searches only the
  // views whose certificate the delta actually hits. Exact substrate —
  // only provably-exact enumerations certify.
  {
    WorkloadOptions opt;
    opt.num_views = 64;
    opt.synthetic_sources = 300;
    opt.base_rows = 150;
    opt.exact = true;
    // Bulk views cycle four keyword sets; the last two views get keyword
    // sets of their own, so a delta inside their neighborhoods can avoid
    // every bulk view's certificate.
    opt.trial_plan.clear();
    for (std::size_t i = 0; i + 2 < opt.num_views; ++i) {
      opt.trial_plan.push_back(i % 4);
    }
    opt.trial_plan.push_back(5);
    opt.trial_plan.push_back(6);
    Workload rw(opt);
    std::printf("relevance graph: %zu nodes, %zu edges, %zu views\n",
                rw.graph.num_nodes(), rw.graph.num_edges(),
                rw.views.size());
    std::size_t certified = 0;
    for (const auto& view : rw.views) {
      certified += view->certificate().valid ? 1 : 0;
    }
    std::printf("certified views: %zu / %zu\n", certified,
                rw.views.size());
    Q_CHECK_MSG(certified > rw.views.size() / 2,
                "exact enumeration failed to certify most views");

    // Base-graph edges carrying each feature. Only features with strictly
    // positive values everywhere qualify: the feedback step nudges
    // weights *up*, and a negative feature value would turn that into a
    // cost decrease, which correctly burns slack on every view (gap-0
    // tie-heavy views then fall through) — a different scenario than the
    // sparse, increase-only step modeled here.
    std::map<q::graph::FeatureId, std::vector<q::graph::EdgeId>>
        feature_edges;
    std::set<q::graph::FeatureId> has_nonpositive;
    for (q::graph::EdgeId e = 0; e < rw.graph.num_edges(); ++e) {
      for (const auto& [id, value] : rw.graph.edge_features(e).entries()) {
        if (id == q::graph::FeatureSpace::kDefaultFeature) continue;
        feature_edges[id].push_back(e);
        if (value <= 0.0) has_nonpositive.insert(id);
      }
    }
    for (q::graph::FeatureId f : has_nonpositive) feature_edges.erase(f);
    // Shared features (confidence/similarity bins) also ride the
    // view-local keyword-match edges appended after the base copy — and
    // those sit next to the terminals, inside every certificate. The
    // base-edge postings above cannot see that, so drop any feature a
    // view-local edge carries; what survives is per-edge features, the
    // shape of a MIRA step over a specific tree.
    for (const auto& view : rw.views) {
      const q::graph::SearchGraph& g = view->query_graph().graph;
      for (q::graph::EdgeId e = rw.graph.num_edges(); e < g.num_edges();
           ++e) {
        for (const auto& [id, value] : g.edge_features(e).entries()) {
          feature_edges.erase(id);
        }
      }
    }
    // Which views' certificates a feature's edges intersect (base edge
    // ids are copied id-for-id into every query graph).
    auto touched_views = [&](const std::vector<q::graph::EdgeId>& edges) {
      std::vector<std::size_t> touched;
      for (std::size_t v = 0; v < rw.views.size(); ++v) {
        const auto& cert = rw.views[v]->certificate().edges;
        for (q::graph::EdgeId e : edges) {
          if (std::binary_search(cert.begin(), cert.end(), e)) {
            touched.push_back(v);
            break;
          }
        }
      }
      return touched;
    };
    // The feedback step: two narrow features landing inside *different*
    // views' certificates — together they touch ~2 views — plus a
    // handful of features outside every certificate, exercising the
    // slack math on the other 60+ views.
    std::vector<std::pair<q::graph::FeatureId, std::vector<std::size_t>>>
        in_cert;
    std::vector<q::graph::FeatureId> outside;
    for (const auto& [f, edges] : feature_edges) {
      auto touched = touched_views(edges);
      if (touched.empty()) {
        if (outside.size() < 4 && edges.size() <= 2) outside.push_back(f);
      } else {
        in_cert.emplace_back(f, std::move(touched));
      }
    }
    Q_CHECK_MSG(!in_cert.empty(), "no feature intersects any certificate");
    std::sort(in_cert.begin(), in_cert.end(),
              [](const auto& a, const auto& b) {
                if (a.second.size() != b.second.size()) {
                  return a.second.size() < b.second.size();
                }
                return a.first < b.first;
              });
    std::vector<q::graph::FeatureId> targets{in_cert[0].first};
    std::set<std::size_t> target_views(in_cert[0].second.begin(),
                                       in_cert[0].second.end());
    for (const auto& [f, touched] : in_cert) {
      bool overlaps = true;
      for (std::size_t v : touched) overlaps &= target_views.count(v) > 0;
      if (overlaps) continue;  // prefer a feature hitting a new view
      targets.push_back(f);
      target_views.insert(touched.begin(), touched.end());
      break;
    }
    std::printf("sparse feedback: %zu target features touch %zu/%zu view "
                "certificates, plus %zu outside features\n",
                targets.size(), target_views.size(), rw.views.size(),
                outside.size());

    auto nudge = [&] {
      for (q::graph::FeatureId f : targets) rw.weights->Nudge(f, 0.004);
      for (q::graph::FeatureId f : outside) rw.weights->Nudge(f, 0.004);
    };

    // Baseline: the PR 3 delta-recost pipeline (gate off).
    rw.engine.set_relevance_gating(false);
    nudge();
    rw.RefreshBatched();  // settle into the steady state being measured
    double unscoped_us = MedianMicros([&] {
      nudge();
      rw.RefreshBatched();
    });
    emit("view_refresh_unscoped_" + std::to_string(rw.views.size()),
         rw.graph.num_nodes(), unscoped_us);

    // Relevance-scoped: identical updates, gate on.
    rw.engine.set_relevance_gating(true);
    nudge();
    rw.RefreshBatched();
    auto gate_before = rw.engine.stats();
    std::size_t skipped_before = gate_before.views_skipped_irrelevant;
    std::size_t searches_before = gate_before.searches_run;
    std::size_t checks_before = gate_before.relevance_checks;
    std::size_t fallthrough_before = gate_before.relevance_fallthroughs;
    nudge();
    rw.RefreshBatched();
    auto rstats = rw.engine.stats();
    std::size_t searched_per_round = rstats.searches_run - searches_before;
    std::printf("gated round: %zu searches, %zu checks, %zu fallthroughs, "
                "%zu irrelevant skips\n",
                searched_per_round, rstats.relevance_checks - checks_before,
                rstats.relevance_fallthroughs - fallthrough_before,
                rstats.views_skipped_irrelevant - skipped_before);
    Q_CHECK_MSG(rstats.views_skipped_irrelevant > skipped_before,
                "relevance gate never skipped a view");
    Q_CHECK_MSG(searched_per_round < rw.views.size(),
                "relevance gate did not reduce per-round searches");
    double scoped_us = MedianMicros([&] {
      nudge();
      rw.RefreshBatched();
    });
    emit("view_refresh_scoped_" + std::to_string(rw.views.size()),
         rw.graph.num_nodes(), scoped_us);

    // Output correctness last (independent refreshes re-stamp the
    // certificates, which would disable the gate mid-measurement): after
    // all the skipped rounds above, every view must still match a
    // from-scratch refresh bit for bit.
    auto scoped_states = Capture(rw);
    rw.RefreshIndependent();
    bool relevance_ok = SameStates(scoped_states, Capture(rw));
    if (!relevance_ok) {
      std::printf("MISMATCH: relevance-scoped refresh differs from "
                  "independent\n");
      ok = false;
    }

    double relevance_ratio = scoped_us > 0.0 ? unscoped_us / scoped_us : 0.0;
    std::printf("%-28s speedup=%.2fx (unscoped/scoped), %zu searches/round, "
                "%zu irrelevant skips, output %s\n",
                "view_refresh_relevance_speedup", relevance_ratio,
                searched_per_round,
                rw.engine.stats().views_skipped_irrelevant,
                relevance_ok ? "verified identical" : "MISMATCH");
    std::fprintf(json,
                 "{\"kernel\":\"view_refresh_relevance_speedup\","
                 "\"n\":%zu,\"ratio\":%.3f}\n",
                 rw.views.size(), relevance_ratio);
  }

  // --- feedback-ack latency: async refresh vs synchronous repair ----------
  // The async refresh contract's headline number: with 64 open views, how
  // long does one user's ApplyFeedback hold the interactive path? Sync
  // mode repairs every affected view inline; async mode returns after the
  // journal append + relevance classification and repairs on the
  // scheduler's pool. Both pay the same MIRA update, including its own
  // cold k-best search: these views publish k = 3 and MIRA asks for 5,
  // so neither system can reuse a view's published list. The ratio
  // therefore isolates the refresh work moved off the path.
  {
    q::data::GbcoConfig gconfig;
    gconfig.base_rows = 150;
    auto dataset = q::data::BuildGbco(gconfig);
    auto build_system = [&](bool async) {
      q::core::QSystemConfig config;
      config.steiner_threads = -1;  // repairs parallelize via the scheduler
      config.async_refresh = async;
      config.async_repair_threads = async ? 2 : 0;
      config.view.top_k.k = 3;
      config.view.query_graph.max_matches_per_keyword = 6;
      auto qs = std::make_unique<q::core::QSystem>(config);
      for (const auto& src : dataset.catalog.sources()) {
        Q_CHECK_OK(qs->RegisterSource(src));
      }
      // No matcher bootstrap: the FK/membership graph already answers the
      // trial keywords, and alignment is not what this scenario measures.
      for (std::size_t i = 0; i < 64; ++i) {
        const auto& keywords =
            dataset.trials[i % dataset.trials.size()].keywords;
        Q_CHECK_OK(qs->CreateView(keywords).status());
      }
      return qs;
    };
    auto sync_q = build_system(false);
    auto async_q = build_system(true);

    // One feedback round, identical on both systems: endorse the current
    // best tree of a rotating view.
    auto endorse = [](q::core::QSystem& qs, int round) {
      std::size_t view = (static_cast<std::size_t>(round) * 17) % 64;
      auto state = qs.ReadView(view).state;
      if (state->trees.empty()) return;
      Q_CHECK_OK(qs.ApplyFeedback(view, state->trees[0]));
    };

    // Correctness gate first: after identical feedback sequences, the
    // drained async system must match the synchronous one bit for bit.
    for (int r = 0; r < 3; ++r) {
      endorse(*sync_q, r);
      endorse(*async_q, r);
    }
    Q_CHECK_OK(async_q->DrainRefreshes());
    bool ack_ok = true;
    for (std::size_t v = 0; v < 64; ++v) {
      auto s = sync_q->ReadView(v).state;
      auto a = async_q->ReadView(v).state;
      if (s->trees.size() != a->trees.size() ||
          s->results.rows.size() != a->results.rows.size()) {
        ack_ok = false;
        break;
      }
      for (std::size_t t = 0; t < s->trees.size(); ++t) {
        ack_ok &= s->trees[t].edges == a->trees[t].edges &&
                  s->trees[t].cost == a->trees[t].cost;
      }
      for (std::size_t r = 0; r < s->results.rows.size(); ++r) {
        ack_ok &= s->results.rows[r].cost == a->results.rows[r].cost &&
                  s->results.rows[r].values == a->results.rows[r].values;
      }
      if (!ack_ok) break;
    }
    if (!ack_ok) {
      std::printf("MISMATCH: async quiescent state differs from sync\n");
      ok = false;
    }

    int sync_round = 100;
    double sync_us = MedianMicros([&] { endorse(*sync_q, sync_round++); });
    emit("feedback_ack_sync_64", 64, sync_us);
    int async_round = 100;
    double async_us =
        MedianMicros([&] { endorse(*async_q, async_round++); });
    emit("feedback_ack_async_64", 64, async_us);
    Q_CHECK_OK(async_q->DrainRefreshes());

    const q::core::AsyncRefreshStats astats =
        async_q->async_scheduler()->stats();
    double ack_ratio = async_us > 0.0 ? sync_us / async_us : 0.0;
    std::printf("%-28s speedup=%.2fx (sync/async ack), %zu repairs run, "
                "%zu no-search validations, output %s\n",
                "feedback_ack_speedup", ack_ratio, astats.repairs_run,
                astats.validations_without_search,
                ack_ok ? "verified identical" : "MISMATCH");
    std::fprintf(json,
                 "{\"kernel\":\"feedback_ack_speedup\",\"n\":64,"
                 "\"ratio\":%.3f}\n",
                 ack_ratio);
  }

  std::fclose(json);
  std::printf("json written to %s\n", json_path);
  return ok ? 0 : 1;
}
