#include "align/view_context.h"

#include <optional>
#include <string>

namespace q::align {

std::vector<std::pair<graph::NodeId, double>> RelationVertexPrior(
    const graph::SearchGraph& search_graph, const graph::FeatureSpace& space,
    const graph::WeightVector& weights) {
  std::vector<std::pair<graph::NodeId, double>> prior;
  for (graph::NodeId n = 0; n < search_graph.num_nodes(); ++n) {
    if (search_graph.node(n).kind != graph::NodeKind::kRelation) continue;
    graph::FeatureId fid;
    std::string feature_name = "rel:" + search_graph.node(n).label;
    if (space.Find(feature_name, &fid)) {
      prior.emplace_back(n, -weights.At(fid));
    }
  }
  return prior;
}

AlignContext ContextFromView(
    const query::TopKView& view, const graph::SearchGraph& search_graph,
    const graph::WeightVector& weights, int top_y,
    std::size_t preferential_budget,
    std::vector<std::pair<graph::NodeId, double>> vertex_prior) {
  AlignContext ctx;
  ctx.alpha = view.Alpha();
  ctx.top_y = top_y;
  ctx.max_relations = preferential_budget;

  const query::QueryGraph& qg = view.query_graph();
  for (graph::NodeId kw : qg.keyword_nodes) {
    for (graph::EdgeId eid : qg.graph.edges_of(kw)) {
      const graph::EdgeView e = qg.graph.edge(eid);
      if (e.kind != graph::EdgeKind::kKeywordMatch) continue;
      double cost = qg.graph.EdgeCost(eid, weights);
      const graph::Node& target = qg.graph.node(e.Other(kw));
      std::optional<graph::NodeId> seed;
      switch (target.kind) {
        case graph::NodeKind::kRelation:
          seed = search_graph.FindRelationNode(target.label);
          break;
        case graph::NodeKind::kAttribute:
        case graph::NodeKind::kValue:
          seed = search_graph.FindAttributeNode(target.attr);
          break;
        case graph::NodeKind::kKeyword:
          break;
      }
      if (seed.has_value()) ctx.keyword_seeds.emplace_back(*seed, cost);
    }
  }

  ctx.vertex_prior = std::move(vertex_prior);
  return ctx;
}

AlignContext ContextFromView(const query::TopKView& view,
                             const graph::SearchGraph& search_graph,
                             const graph::FeatureSpace& space,
                             const graph::WeightVector& weights, int top_y,
                             std::size_t preferential_budget) {
  return ContextFromView(view, search_graph, weights, top_y,
                         preferential_budget,
                         RelationVertexPrior(search_graph, space, weights));
}

}  // namespace q::align
