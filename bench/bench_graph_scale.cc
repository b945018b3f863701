// Million-source storage + query scaling. Streams synthetic catalogs
// (data::BuildStreamingCatalog: Zipfian domain hubs, 3 nodes / ~4 edges
// per source) into the compact SearchGraph and measures
//
//   - resident bytes per source (graph.MemoryUsage().total() / sources),
//     mirrored into graph::LegacyGraphRep at the gated scales to prove
//     the compact representation's >= 2x advantage — exit 2 if the
//     ratio ever drops below 2.0;
//   - terminal-local query latency: p95 of sharded top-k Steiner
//     searches with same-domain terminals, at 10k and 100k sources.
//     Sharded results are cross-checked bit-identical against the
//     unsharded engine on a query subset — exit 2 on divergence, and
//     on any masked SP tree that bypassed the compacted path — so this
//     run is a correctness gate as well as a perf probe.
//
// Smoke mode covers 10k + 100k (the scales check.sh gates); the full
// run adds the 1M-source materialization from the roadmap's acceptance
// bar (no legacy mirror there — the mirror alone would dwarf the graph).
//
// JSON lines use median_us as the gated magnitude even for byte counts
// (the check.sh parser keys on that field); bytes also appear under
// their own names for humans.
//
// Usage: bench_graph_scale [--json=PATH] [--smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/synthetic.h"
#include "graph/legacy_rep.h"
#include "steiner/fast_solver.h"
#include "steiner/top_k.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

double Percentile(std::vector<double> xs, int pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  std::size_t idx = (xs.size() * static_cast<std::size_t>(pct) + 99) / 100;
  return xs[idx == 0 ? 0 : idx - 1];
}

// One query's terminals: an attribute of a recently ingested source,
// plus two attribute nodes from its bounded cost neighborhood (the
// sliding hub pools give the stream temporal locality, so "tell me how
// these recent sources relate" is the natural query shape at this
// scale). The bounded Dijkstra keeps terminal selection O(window), not
// O(graph), so it works unchanged at the 1M tier.
std::vector<q::graph::NodeId> WindowTerminals(
    const q::graph::SearchGraph& graph, const q::graph::WeightVector& weights,
    double hop_cost, q::util::Rng* rng, q::graph::DistanceField* field) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    q::graph::NodeId t0 = static_cast<q::graph::NodeId>(
        graph.num_nodes() - 1 - rng->Uniform(graph.num_nodes() / 10 + 1));
    if (graph.node(t0).kind != q::graph::NodeKind::kAttribute) continue;
    graph.Dijkstra({{t0, 0.0}}, weights, /*max_cost=*/8.0 * hop_cost, field);
    std::vector<q::graph::NodeId> window;
    for (q::graph::NodeId n : field->reached()) {
      if (n != t0 && graph.node(n).kind == q::graph::NodeKind::kAttribute) {
        window.push_back(n);
      }
    }
    if (window.size() < 2) continue;
    std::vector<q::graph::NodeId> terminals = {t0};
    while (terminals.size() < 3) {
      q::graph::NodeId t = window[rng->Uniform(window.size())];
      if (std::find(terminals.begin(), terminals.end(), t) ==
          terminals.end()) {
        terminals.push_back(t);
      }
    }
    return terminals;
  }
  return {};
}

// Mean cost of a sample of edges — the neighborhood radius unit.
double MeanEdgeCost(const q::graph::SearchGraph& graph,
                    const q::graph::WeightVector& weights) {
  std::size_t sample = std::min<std::size_t>(graph.num_edges(), 256);
  if (sample == 0) return 1.0;
  double sum = 0.0;
  for (q::graph::EdgeId e = 0; e < sample; ++e) {
    sum += graph.EdgeCost(e, weights);
  }
  double mean = sum / static_cast<double>(sample);
  return mean > 0.0 ? mean : 1.0;
}

struct ScaleReport {
  double bytes_per_source = 0.0;
  double query_p95_us = 0.0;
};

bool RunScale(std::size_t sources, bool mirror_legacy, bool run_queries,
              FILE* json, const char* suffix, ScaleReport* report) {
  q::util::Rng rng(9000 + sources % 997);
  q::data::StreamingCatalogOptions options;
  q::graph::FeatureSpace space;
  q::graph::CostModel model(&space, q::graph::CostModelConfig{});
  q::graph::SearchGraph graph;

  q::util::WallTimer build_timer;
  Q_CHECK_OK(q::data::BuildStreamingCatalog(sources, options, &rng,
                                            /*catalog=*/nullptr, &model,
                                            &graph));
  double build_ms = build_timer.ElapsedMillis();

  q::graph::MemoryBreakdown breakdown = graph.MemoryUsage();
  report->bytes_per_source =
      static_cast<double>(breakdown.total()) / static_cast<double>(sources);
  std::printf("%-8s %10zu nodes %10zu edges  build %8.0f ms  %7.1f B/src\n",
              suffix, graph.num_nodes(), graph.num_edges(), build_ms,
              report->bytes_per_source);

  double legacy_ratio = 0.0;
  if (mirror_legacy) {
    q::graph::LegacyGraphRep legacy;
    for (q::graph::NodeId n = 0; n < graph.num_nodes(); ++n) {
      legacy.AddNode(graph.node(n).kind, graph.node(n).label,
                     graph.node(n).attr);
    }
    for (q::graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      legacy.AddEdge(graph.ExportEdge(e));
    }
    legacy_ratio = static_cast<double>(legacy.MemoryUsage()) /
                   static_cast<double>(breakdown.total());
    std::printf("%-8s legacy mirror %7.1f B/src — compact advantage %.2fx\n",
                suffix,
                static_cast<double>(legacy.MemoryUsage()) /
                    static_cast<double>(sources),
                legacy_ratio);
    if (legacy_ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: compact representation only %.2fx smaller than "
                   "legacy at %zu sources (gate: >= 2.0x)\n",
                   legacy_ratio, sources);
      return false;
    }
  }
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"kernel\":\"graph_scale_bytes_per_source_%s\","
                 "\"n\":%zu,\"median_us\":%.1f,\"compact_bytes\":%zu,"
                 "\"legacy_ratio\":%.3f}\n",
                 suffix, sources, report->bytes_per_source,
                 breakdown.total(), legacy_ratio);
  }

  if (!run_queries) return true;

  q::graph::WeightVector weights(&space);
  const double hop_cost = MeanEdgeCost(graph, weights);
  q::graph::DistanceField field;
  // Deterministic query mix over recent-source neighborhoods. The
  // enumeration cap bounds a single query's work: the serving path wants
  // a latency envelope, not an exhaustive Lawler sweep (and both
  // configurations run under the same cap, so the bit-identity check
  // still compares like with like).
  q::util::Rng qrng(1234);
  // 48 samples per tier: the growth gate divides two p95 order
  // statistics, and with fewer samples the quotient flaps past its own
  // ceiling on hub-window sampling luck alone.
  const int num_queries = 48;
  // Verified queries are also solved by the uncompacted masked referee
  // AND the unsharded engine; all three must bit-match.
  const int verify_queries = 4;
  q::steiner::TopKConfig sharded;
  sharded.k = 3;
  sharded.max_subproblems = 300;
  sharded.sharded.enabled = true;
  q::steiner::TopKConfig referee = sharded;
  referee.sharded.compact_local_ids = false;
  q::steiner::TopKConfig plain = sharded;
  plain.sharded.enabled = false;

  // One engine per configuration, shared across the query mix — this is
  // the serving-path shape (RefreshEngine keeps an engine per view), so
  // the per-query numbers measure search work, not repeated CSR builds.
  q::steiner::FastSteinerEngine sharded_engine(graph, weights, true);
  q::steiner::FastSteinerEngine referee_engine(graph, weights, true);
  q::steiner::FastSteinerEngine plain_engine(graph, weights, true);

  // Untimed warmup: the first query against a fresh engine pays one-time
  // setup (the shard partition build, thread-local scratch growth) that
  // the serving path amortizes across a view's lifetime; folding it into
  // one sample would skew the tail of a 24-query distribution.
  {
    q::util::Rng warm_rng(4321);
    std::vector<q::graph::NodeId> warm =
        WindowTerminals(graph, weights, hop_cost, &warm_rng, &field);
    if (!warm.empty()) {
      q::steiner::TopKSteinerTrees(graph, weights, warm, sharded,
                                   &sharded_engine);
      q::steiner::TopKSteinerTrees(graph, weights, warm, plain, &plain_engine);
    }
  }

  std::vector<double> latencies_us;
  for (int query = 0; query < num_queries; ++query) {
    std::vector<q::graph::NodeId> terminals =
        WindowTerminals(graph, weights, hop_cost, &qrng, &field);
    if (terminals.empty()) {
      std::fprintf(stderr, "FAIL: no queryable neighborhood found\n");
      return false;
    }
    // Best-of-2 per query: each run builds a fresh localizer and mask
    // (and masked solves never cache trees, so both runs do the same
    // work) — the repeat preserves the cold-query semantics and sheds
    // only OS noise, which otherwise dominates a 24-sample p95 and
    // makes the cross-tier growth ratio flap.
    std::vector<q::steiner::SteinerTree> trees;
    double best_us = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      q::util::WallTimer timer;
      auto run = q::steiner::TopKSteinerTrees(graph, weights, terminals,
                                              sharded, &sharded_engine);
      const double us = timer.ElapsedMicros();
      if (rep == 0 || us < best_us) best_us = us;
      trees = std::move(run);
    }
    latencies_us.push_back(best_us);
    if (std::getenv("Q_BENCH_DEBUG") != nullptr) {
      q::steiner::FastSolveStats st = sharded_engine.stats();
      std::fprintf(stderr,
                   "%-8s query %2d  %4zu terminals  %10.1f us  "
                   "masked=%zu ghits=%zu gmisses=%zu bypass=%zu\n",
                   suffix, query, terminals.size(), latencies_us.back(),
                   st.sp_local_misses, st.sp_cache_hits, st.sp_cache_misses,
                   st.masked_bypasses);
    }
    if (query < verify_queries) {
      auto check_same = [&](const std::vector<q::steiner::SteinerTree>& other,
                            const char* what) {
        bool same = trees.size() == other.size();
        for (std::size_t i = 0; same && i < trees.size(); ++i) {
          same = trees[i].edges == other[i].edges &&
                 trees[i].cost == other[i].cost;
        }
        if (!same) {
          std::fprintf(stderr,
                       "FAIL: compacted sharded top-k diverged from %s at "
                       "%zu sources (query %d)\n",
                       what, sources, query);
        }
        return same;
      };
      auto masked_ref = q::steiner::TopKSteinerTrees(
          graph, weights, terminals, referee, &referee_engine);
      auto reference = q::steiner::TopKSteinerTrees(graph, weights, terminals,
                                                    plain, &plain_engine);
      if (!check_same(masked_ref, "the uncompacted masked referee") ||
          !check_same(reference, "the unsharded engine")) {
        return false;
      }
    }
  }
  report->query_p95_us = Percentile(latencies_us, 95);
  const double query_p50_us = Percentile(latencies_us, 50);
  std::printf("%-8s query p95 %10.1f us (p50 %10.1f us) over %d sharded "
              "queries (%d verified vs unsharded)\n",
              suffix, report->query_p95_us, query_p50_us, num_queries,
              verify_queries);
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"kernel\":\"graph_scale_query_p95_us_%s\",\"n\":%zu,"
                 "\"median_us\":%.1f}\n",
                 suffix, sources, report->query_p95_us);
    // Ungated context: the median separates queue-of-work growth (median)
    // from the hub-heavy tail (p95), whose cost is dominated by cache
    // misses over the larger node arrays rather than by mask size.
    std::fprintf(json,
                 "{\"kernel\":\"graph_scale_query_p50_us_%s\",\"n\":%zu,"
                 "\"median_us\":%.1f}\n",
                 suffix, sources, query_p50_us);
  }
  // Masked SP trees of the compacted configuration. Bypasses count
  // trees computed by the uncompacted referee path instead — with
  // compaction enabled and localizer-built masks that is a bug, so it
  // fails the run.
  q::steiner::FastSolveStats stats = sharded_engine.stats();
  std::printf("%-8s masked sp-trees: %zu compacted, %zu bypasses\n", suffix,
              stats.sp_local_misses, stats.masked_bypasses);
  if (json != nullptr) {
    std::fprintf(json,
                 "{\"kernel\":\"graph_scale_masked_trees_%s\",\"n\":%zu,"
                 "\"masked_trees\":%zu,\"masked_bypasses\":%zu}\n",
                 suffix, sources, stats.sp_local_misses,
                 stats.masked_bypasses);
  }
  if (stats.masked_bypasses > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu masked SP trees bypassed the compacted path at "
                 "%zu sources\n",
                 stats.masked_bypasses, sources);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  // Hard ceiling on p95 growth 10k -> 100k. Sources grow 10x across the
  // tier; local-id mask compaction keeps per-solve state mask-sized, so
  // the tail must grow sub-linearly. Exceeding the ceiling exits 2 —
  // this is a gate, not a warning (scripts/check.sh enforces the same
  // ceiling from the committed baseline).
  double max_growth = 5.0;
  std::string json_path = "bench/out/BENCH_graph_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--max-growth=", 13) == 0) {
      max_growth = std::atof(argv[i] + 13);
    }
  }
  q::bench::PrintHeader(
      "Graph scale — compact storage + sharded terminal-local search",
      "bytes/source vs legacy rep; sharded top-k p95 at 10k/100k sources");

  FILE* json = q::bench::OpenBenchJson(json_path);

  ScaleReport r10k, r100k;
  bool ok = RunScale(10000, /*mirror_legacy=*/true, /*run_queries=*/true,
                     json, "10k", &r10k) &&
            RunScale(100000, /*mirror_legacy=*/true, /*run_queries=*/true,
                     json, "100k", &r100k);
  if (ok) {
    // Sublinear-growth probe: sources grew 10x; a p95 growing by the
    // same factor would mean terminal-locality buys nothing.
    double growth = r10k.query_p95_us > 0.0
                        ? r100k.query_p95_us / r10k.query_p95_us
                        : 0.0;
    std::printf("p95 growth 10k -> 100k: %.2fx (sources grew 10.00x, "
                "ceiling %.2fx)\n",
                growth, max_growth);
    if (json != nullptr) {
      std::fprintf(json,
                   "{\"kernel\":\"graph_scale_p95_growth\",\"ratio\":%.3f,"
                   "\"max_ratio\":%.3f}\n",
                   growth, max_growth);
    }
    if (growth > max_growth) {
      std::fprintf(stderr,
                   "FAIL: sharded query p95 grew %.2fx from 10k to 100k "
                   "sources (gate: <= %.2fx)\n",
                   growth, max_growth);
      ok = false;
    }
  }
  if (ok && !smoke) {
    ScaleReport r1m;
    ok = RunScale(1000000, /*mirror_legacy=*/false, /*run_queries=*/true,
                  json, "1m", &r1m);
  }
  if (json != nullptr) {
    std::fclose(json);
    std::printf("json written to %s\n", json_path.c_str());
  }
  if (!ok) return 2;
  return 0;
}
