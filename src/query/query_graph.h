#ifndef Q_QUERY_QUERY_GRAPH_H_
#define Q_QUERY_QUERY_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/cost_model.h"
#include "graph/search_graph.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/result.h"

namespace q::query {

struct QueryGraphOptions {
  // Keyword-to-node matches below this tf-idf similarity are dropped.
  double min_similarity = 0.25;
  // Cap on match edges added per keyword (metadata + value matches).
  std::size_t max_matches_per_keyword = 12;
  // Association edges whose current cost exceeds this threshold are left
  // out of the query graph (the pruning threshold of Sec. 5.2.2).
  double association_cost_threshold =
      std::numeric_limits<double>::infinity();
};

// The dynamic expansion of the search graph for one keyword query
// (Sec. 2.2 / Fig. 3): a copy of the search graph plus one keyword node
// per query term, lazily-materialized value nodes for matching tuples,
// and weighted keyword-match edges.
//
// Layout: a base prefix — the base graph's first `base_nodes` nodes and
// (with the default infinite association_cost_threshold) first
// `base_edges` edges, copied id-for-id as of `base_revision` — followed
// by the keyword overlay. That layout is what lets RebaseQueryGraph
// patch a cached graph instead of re-copying the catalog.
struct QueryGraph {
  graph::SearchGraph graph;
  std::vector<std::string> keywords;
  std::vector<graph::NodeId> keyword_nodes;  // parallel to `keywords`
  // Fingerprint of the keyword->match expansion this graph was built
  // from (see KeywordMatchFingerprint below), at the cost model's
  // `num_bins` resolution.
  std::uint64_t keyword_fingerprint = 0;
  int num_bins = 0;
  // Whether the prefix is an id-for-id copy of the base graph at
  // `base_revision` (false before the first build, and when association
  // pruning dropped base edges).
  bool rebasable = false;
  std::uint64_t base_revision = 0;
  std::size_t base_nodes = 0;
  std::size_t base_edges = 0;
};

// Order-sensitive FNV-1a style hash over the match signature the keyword
// overlay depends on: per keyword, the keyword text followed by every
// (doc_index, BinIndex(1 - score, num_bins)) pair index.Search returns at
// the options' similarity floor and match cap, in ranked order. A match
// score reaches the query graph only through its mismatch-cost bin
// (CostModel::KeywordMatchFeatures), so equal fingerprints prove a
// rebuilt overlay equals the old one even though TF-IDF scores move with
// every new document (idf is corpus-wide). `num_bins` must be the cost
// model's CostModelConfig::num_bins.
std::uint64_t KeywordMatchFingerprint(
    const text::TextIndex& index, const std::vector<std::string>& keywords,
    const QueryGraphOptions& options,
    int num_bins = graph::CostModelConfig{}.num_bins);

// What RebaseQueryGraph did to the cached graph.
enum class RebaseKind {
  // The base graph has not moved since base_revision: nothing to do.
  kUnchanged,
  // Only pre-existing base edges were mutated in place: their copies
  // were overwritten; node/edge ids and the overlay are unchanged.
  kPatched,
  // Overlay truncated, the base delta appended, the overlay replayed.
  kRebased,
  // Full re-expansion from an empty graph (first build or a fall-back).
  kRebuilt,
};

// Brings `qg` (with `keywords` set) up to date with `base`. Reads the
// base journal since qg->base_revision and, when the prefix can be
// patched, truncates the overlay (SearchGraph::TruncateTo), overwrites
// the mutated pre-existing base edges, appends the base nodes and edges
// added since, and replays the overlay — the same code a first build
// runs from an empty prefix, so node ids, edge ids, per-node adjacency
// order, payloads and the fingerprint all equal a fresh
// BuildQueryGraph's. Falls back to the full re-expansion when the graph
// is not rebasable, the threshold is finite, the base journal is
// truncated, or a pre-existing node was mutated. When only pre-existing
// edges moved (kPatched) their sorted ids are stored in `patched_edges`
// (if non-null). Fails with NotFound — leaving `qg` untouched — if any
// keyword matches nothing at or above min_similarity.
util::Result<RebaseKind> RebaseQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    graph::CostModel* model, const graph::WeightVector& weights,
    const QueryGraphOptions& options, QueryGraph* qg,
    std::vector<graph::EdgeId>* patched_edges = nullptr);

// Builds the query graph: a rebase from an empty prefix. Fails with
// NotFound if any keyword matches nothing at or above min_similarity.
util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options);

}  // namespace q::query

#endif  // Q_QUERY_QUERY_GRAPH_H_
