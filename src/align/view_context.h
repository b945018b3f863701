#ifndef Q_ALIGN_VIEW_CONTEXT_H_
#define Q_ALIGN_VIEW_CONTEXT_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "align/aligner.h"
#include "query/view.h"

namespace q::align {

// The relation-node vertex prior (Sec. 3.3): every relation node of
// `search_graph` that has a learned authoritativeness weight, paired with
// that weight negated. It depends on the graph and the weights but on no
// view, so a caller aligning against several views computes it once.
std::vector<std::pair<graph::NodeId, double>> RelationVertexPrior(
    const graph::SearchGraph& search_graph, const graph::FeatureSpace& space,
    const graph::WeightVector& weights);

// Derives the alignment context of a live view (Sec. 3.3): alpha is the
// cost of the view's k-th best answer; the keyword seeds are the view's
// keyword-match edges mapped back onto search-graph nodes, with the match
// cost as initial distance (value nodes map to their owning attribute —
// the membership hop is free, so distances are identical). The vertex
// prior is `vertex_prior`, normally RelationVertexPrior's.
AlignContext ContextFromView(
    const query::TopKView& view, const graph::SearchGraph& search_graph,
    const graph::WeightVector& weights, int top_y,
    std::size_t preferential_budget,
    std::vector<std::pair<graph::NodeId, double>> vertex_prior);

// As above, with the vertex prior read off the learned per-relation
// authoritativeness weights (RelationVertexPrior).
AlignContext ContextFromView(const query::TopKView& view,
                             const graph::SearchGraph& search_graph,
                             const graph::FeatureSpace& space,
                             const graph::WeightVector& weights, int top_y,
                             std::size_t preferential_budget);

}  // namespace q::align

#endif  // Q_ALIGN_VIEW_CONTEXT_H_
