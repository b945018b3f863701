#include "query/query_graph.h"

#include <algorithm>
#include <optional>

#include "util/logging.h"

namespace q::query {
namespace {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixFingerprint(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

// Every keyword's ranked index.Search matches, parallel to the keywords.
using KeywordMatches = std::vector<std::vector<text::ScoredDoc>>;

KeywordMatches SearchKeywords(const text::TextIndex& index,
                              const std::vector<std::string>& keywords,
                              const QueryGraphOptions& options) {
  KeywordMatches matches;
  matches.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    matches.push_back(index.Search(keyword, options.min_similarity,
                                   options.max_matches_per_keyword));
  }
  return matches;
}

// The match signature: per keyword, the keyword text, a separator, then
// every (doc_index, mismatch bin) pair in ranked order — exactly what
// AppendOverlay reads of a match.
std::uint64_t MatchSignature(const std::vector<std::string>& keywords,
                             const KeywordMatches& matches, int num_bins) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    for (char c : keywords[i]) {
      MixFingerprint(&h, static_cast<unsigned char>(c));
    }
    MixFingerprint(&h, 0xffu);
    for (const text::ScoredDoc& match : matches[i]) {
      MixFingerprint(&h, static_cast<std::uint64_t>(match.doc_index));
      MixFingerprint(&h, static_cast<std::uint64_t>(
                             graph::BinIndex(1.0 - match.score, num_bins)));
    }
  }
  return h;
}

// The schema node a matched document names: its relation node for a
// relation name, its attribute node for an attribute name or a value.
// Only base nodes are relation/attribute nodes, so the answer is the same
// in the base graph and in a query graph built over it.
std::optional<graph::NodeId> SchemaNode(const graph::SearchGraph& g,
                                        const text::Document& doc) {
  if (doc.kind == text::DocKind::kRelationName) {
    return g.FindRelationNode(doc.attr.RelationQualifiedName());
  }
  return g.FindAttributeNode(doc.attr);
}

// The overlay adds one match edge per match whose schema node exists, so
// this is exactly the check that it would give every keyword an edge.
util::Status CheckOverlay(const graph::SearchGraph& base,
                          const text::TextIndex& index,
                          const std::vector<std::string>& keywords,
                          const KeywordMatches& matches) {
  for (std::size_t i = 0; i < keywords.size(); ++i) {
    const bool any = std::any_of(
        matches[i].begin(), matches[i].end(),
        [&](const text::ScoredDoc& match) {
          return SchemaNode(base, index.documents()[match.doc_index])
              .has_value();
        });
    if (!any) {
      return util::Status::NotFound("keyword '" + keywords[i] +
                                    "' matched no schema element or value");
    }
  }
  return util::Status::OK();
}

// Appends base nodes [qg->graph.num_nodes(), N) and base edges
// [from_edge, E) in id order, dropping association edges whose current
// cost exceeds the threshold.
void AppendBase(const graph::SearchGraph& base,
                const graph::WeightVector& weights,
                double association_cost_threshold, graph::EdgeId from_edge,
                graph::SearchGraph* out) {
  for (graph::NodeId n = static_cast<graph::NodeId>(out->num_nodes());
       n < base.num_nodes(); ++n) {
    const graph::Node& node = base.node(n);
    graph::NodeId added = out->AddNode(node.kind, node.label, node.attr);
    Q_CHECK(added == n);
    const std::string& value_text = base.node_value_text(n);
    if (!value_text.empty()) out->SetNodeValueText(added, value_text);
  }
  for (graph::EdgeId e = from_edge; e < base.num_edges(); ++e) {
    const graph::EdgeView edge = base.edge(e);
    if (edge.kind == graph::EdgeKind::kAssociation &&
        base.EdgeCost(e, weights) > association_cost_threshold) {
      continue;
    }
    out->AddEdge(base.ExportEdge(e));
  }
}

// The keyword overlay: one keyword node per keyword, then per match a
// (lazily materialized, shared) value node for value documents and a
// weighted keyword-match edge. CheckOverlay must have passed.
void AppendOverlay(const text::TextIndex& index, const KeywordMatches& matches,
                   graph::CostModel* model, QueryGraph* qg) {
  graph::SearchGraph& g = qg->graph;
  qg->keyword_nodes.clear();
  for (std::size_t i = 0; i < qg->keywords.size(); ++i) {
    const std::string& keyword = qg->keywords[i];
    graph::NodeId kw_node =
        g.AddNode(graph::NodeKind::kKeyword, "kw:" + keyword);
    qg->keyword_nodes.push_back(kw_node);
    for (const text::ScoredDoc& match : matches[i]) {
      const text::Document& doc = index.documents()[match.doc_index];
      std::optional<graph::NodeId> target = SchemaNode(g, doc);
      if (!target.has_value()) continue;
      if (doc.kind == text::DocKind::kValue) {
        std::string label = doc.attr.ToString() + "=" + doc.text;
        auto existing = g.FindNode(graph::NodeKind::kValue, label);
        if (existing.has_value()) {
          target = existing;
        } else {
          graph::NodeId vnode =
              g.AddNode(graph::NodeKind::kValue, label, doc.attr);
          // Record the raw text for selection-predicate generation.
          g.SetNodeValueText(vnode, doc.text);
          graph::Edge membership;
          membership.u = vnode;
          membership.v = *target;
          membership.kind = graph::EdgeKind::kValueMembership;
          membership.fixed_zero = true;
          g.AddEdge(std::move(membership));
          target = vnode;
        }
      }
      double mismatch = 1.0 - match.score;  // s_i of Fig. 3
      graph::Edge edge;
      edge.u = kw_node;
      edge.v = *target;
      edge.kind = graph::EdgeKind::kKeywordMatch;
      std::string key = keyword + "|" + g.node(*target).label;
      edge.features = model->KeywordMatchFeatures(
          mismatch, doc.attr.RelationQualifiedName(), key);
      g.AddEdge(std::move(edge));
    }
  }
}

// Whether `qg`'s copy of base edge `e` can take the base's current
// payload in place (same endpoints, kind and zero-cost flag).
bool SameEdgeShape(const graph::SearchGraph& base, const graph::SearchGraph& g,
                   graph::EdgeId e) {
  const graph::EdgeView src = base.edge(e);
  const graph::EdgeView dst = g.edge(e);
  return src.u == dst.u && src.v == dst.v && src.kind == dst.kind &&
         src.fixed_zero == dst.fixed_zero;
}

}  // namespace

std::uint64_t KeywordMatchFingerprint(const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options,
                                      int num_bins) {
  return MatchSignature(keywords, SearchKeywords(index, keywords, options),
                        num_bins);
}

util::Result<RebaseKind> RebaseQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    graph::CostModel* model, const graph::WeightVector& weights,
    const QueryGraphOptions& options, QueryGraph* qg,
    std::vector<graph::EdgeId>* patched_edges) {
  const bool prunes = options.association_cost_threshold !=
                      std::numeric_limits<double>::infinity();
  // --- classify the base delta since the cached prefix -------------------
  bool full = !qg->rebasable || prunes;
  bool additions = false;
  std::vector<graph::EdgeId> mutated;
  std::vector<graph::GraphDelta> deltas;
  if (!full && !base.DeltaSince(qg->base_revision, &deltas)) full = true;
  for (const graph::GraphDelta& d : deltas) {
    if (full) break;
    switch (d.kind) {
      case graph::GraphDeltaKind::kNodeAdded:
      case graph::GraphDeltaKind::kEdgeAdded:
        additions = true;
        break;
      case graph::GraphDeltaKind::kNodeMutated:
        // A label or value text the overlay may have matched against.
        if (d.id < qg->base_nodes) full = true;
        break;
      case graph::GraphDeltaKind::kEdgeMutated:
        if (d.id < qg->base_edges) mutated.push_back(d.id);
        break;
    }
  }
  std::sort(mutated.begin(), mutated.end());
  mutated.erase(std::unique(mutated.begin(), mutated.end()), mutated.end());
  if (!full) {
    full = std::any_of(mutated.begin(), mutated.end(), [&](graph::EdgeId e) {
      return !SameEdgeShape(base, qg->graph, e);
    });
  }
  if (!full && deltas.empty()) return RebaseKind::kUnchanged;

  // Keyword matching never reads edge state, so with no node or edge
  // added the overlay stands as is and only edge payloads move in place.
  const bool replay = full || additions;
  // Everything that can fail runs before the first mutation.
  KeywordMatches matches;
  if (replay) {
    matches = SearchKeywords(index, qg->keywords, options);
    Q_RETURN_NOT_OK(CheckOverlay(base, index, qg->keywords, matches));
  }
  if (full) {
    qg->graph = graph::SearchGraph();
    // Only the base graph's delta journal is ever read; a query-graph
    // copy would just buffer one record per copied node/edge, so keep
    // its journal capacity minimal. Its revision still advances.
    qg->graph.set_max_journal_entries(1);
    qg->base_nodes = 0;
    qg->base_edges = 0;
  } else {
    if (replay) qg->graph.TruncateTo(qg->base_nodes, qg->base_edges);
    for (graph::EdgeId e : mutated) {
      qg->graph.OverwriteEdge(e, base.ExportEdge(e));
    }
  }
  qg->base_revision = base.revision();
  if (!replay) {
    if (patched_edges != nullptr) *patched_edges = std::move(mutated);
    return RebaseKind::kPatched;
  }

  AppendBase(base, weights, options.association_cost_threshold,
             static_cast<graph::EdgeId>(qg->base_edges), &qg->graph);
  qg->rebasable = !prunes;
  qg->base_nodes = qg->graph.num_nodes();
  qg->base_edges = qg->graph.num_edges();
  qg->num_bins = model->config().num_bins;
  qg->keyword_fingerprint = MatchSignature(qg->keywords, matches, qg->num_bins);
  AppendOverlay(index, matches, model, qg);
  return full ? RebaseKind::kRebuilt : RebaseKind::kRebased;
}

util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options) {
  QueryGraph qg;
  qg.keywords = keywords;
  Q_RETURN_NOT_OK(
      RebaseQueryGraph(base, index, model, weights, options, &qg).status());
  return qg;
}

}  // namespace q::query
