// Query-graph rebase (RefreshEngine's structural repair path): a view's
// cached query graph is patched in place — keyword overlay truncated,
// base delta appended, overlay replayed — instead of re-copying the
// catalog. The contract is bit-identity with a fresh BuildQueryGraph:
//
//   * after every step of a random interleaving of registrations
//     (disjoint, overlapping, mirror), direct AddAssociations calls
//     (including merges into existing edges and the matcher re-featuring
//     they trigger), pre-existing node mutations (the full re-expansion
//     fall-back) and feedback, every view's rebased query graph equals a
//     fresh build field by field — node ids, edge ids, per-node adjacency
//     order, payloads, keyword nodes and fingerprint;
//   * every view's published output equals that of a twin whose views
//     re-expand from scratch at every refresh;
//   * a long run of rebases keeps the graph's footprint within 10% of a
//     fresh build's;
//   * SearchGraph::TruncateTo, which pops the overlay, answers every
//     lookup as if the popped tail had never been added.
//
// A reader thread races QueryView against the rebases throughout. Runs
// under the ctest `stress` label: the ThreadSanitizer and ASan/UBSan CI
// jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/q_system.h"
#include "graph/cost_model.h"
#include "graph/graph_builder.h"
#include "graph/search_graph.h"
#include "data/onboarding.h"
#include "util/random.h"

namespace q::graph {
namespace {

using relational::AttributeId;
using relational::Catalog;
using relational::DataSource;
using relational::ForeignKey;
using relational::RelationSchema;
using relational::Table;
using relational::ValueType;

// Two relations joined by one declared foreign key.
Catalog TwoTableCatalog() {
  Catalog catalog;
  auto s1 = std::make_shared<DataSource>("go");
  auto t1 = std::make_shared<Table>(
      RelationSchema("go", "go_term",
                     {{"acc", ValueType::kString},
                      {"name", ValueType::kString}}));
  EXPECT_TRUE(s1->AddTable(t1).ok());
  auto s2 = std::make_shared<DataSource>("interpro");
  auto schema = RelationSchema("interpro", "interpro2go",
                               {{"go_id", ValueType::kString},
                                {"entry_ac", ValueType::kString}});
  schema.AddForeignKey(ForeignKey{"go_id", "go", "go_term", "acc"});
  auto t2 = std::make_shared<Table>(schema);
  EXPECT_TRUE(s2->AddTable(t2).ok());
  EXPECT_TRUE(catalog.AddSource(s1).ok());
  EXPECT_TRUE(catalog.AddSource(s2).ok());
  return catalog;
}

// --- SearchGraph::TruncateTo, the rebase's primitive -------------------------

std::vector<std::vector<EdgeId>> AdjacencyOf(const SearchGraph& g) {
  std::vector<std::vector<EdgeId>> adj;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    adj.emplace_back(g.edges_of(n).begin(), g.edges_of(n).end());
  }
  return adj;
}

// A query-graph-shaped tail over TwoTableCatalog's base graph: an
// association between two base attributes, a foreign-key edge carrying
// joins, a value node with its text and membership edge, and a keyword
// node matching both the value and a base relation.
struct Tail {
  NodeId value = kInvalidNode;
  NodeId keyword = kInvalidNode;
  std::vector<EdgeId> edges;
};

Tail AddTail(SearchGraph* g, CostModel* model) {
  const NodeId acc = *g->FindAttributeNode(AttributeId{"go", "go_term", "acc"});
  const NodeId entry =
      *g->FindAttributeNode(AttributeId{"interpro", "interpro2go", "entry_ac"});
  const NodeId go_rel = *g->FindRelationNode("go.go_term");
  const NodeId ip_rel = *g->FindRelationNode("interpro.interpro2go");
  Tail t;
  t.edges.push_back(g->AddAssociationEdge(
      acc, entry,
      model->AssociationFeatures("mad", 0.7, "go.go_term",
                                 "interpro.interpro2go", "acc~entry"),
      MatcherScore{"mad", 0.7}));
  Edge fk;
  fk.u = ip_rel;
  fk.v = go_rel;
  fk.kind = EdgeKind::kForeignKey;
  fk.features = model->ForeignKeyFeatures("tail-fk");
  fk.join_a = AttributeId{"interpro", "interpro2go", "entry_ac"};
  fk.join_b = AttributeId{"go", "go_term", "name"};
  t.edges.push_back(g->AddEdge(std::move(fk)));
  t.value = g->AddNode(NodeKind::kValue, "go.go_term.acc=GO:1",
                       AttributeId{"go", "go_term", "acc"});
  g->SetNodeValueText(t.value, "GO:1");
  Edge membership;
  membership.u = t.value;
  membership.v = acc;
  membership.kind = EdgeKind::kValueMembership;
  membership.fixed_zero = true;
  t.edges.push_back(g->AddEdge(std::move(membership)));
  t.keyword = g->AddNode(NodeKind::kKeyword, "kw:go");
  for (NodeId target : {t.value, go_rel}) {
    Edge match;
    match.u = t.keyword;
    match.v = target;
    match.kind = EdgeKind::kKeywordMatch;
    match.features = model->KeywordMatchFeatures(0.2, "go.go_term", "k");
    t.edges.push_back(g->AddEdge(std::move(match)));
  }
  return t;
}

TEST(SearchGraphTruncateTest, AnswersAsIfTheTailWasNeverAdded) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  const std::size_t nodes = g.num_nodes();
  const std::size_t edges = g.num_edges();
  const auto adjacency = AdjacencyOf(g);
  const NodeId acc = *g.FindAttributeNode(AttributeId{"go", "go_term", "acc"});
  const NodeId entry =
      *g.FindAttributeNode(AttributeId{"interpro", "interpro2go", "entry_ac"});

  const Tail first = AddTail(&g, &model);
  ASSERT_TRUE(g.FindAssociation(acc, entry).has_value());
  const std::uint64_t before_truncate = g.revision();

  g.TruncateTo(nodes, edges);
  EXPECT_EQ(g.num_nodes(), nodes);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_EQ(AdjacencyOf(g), adjacency);
  EXPECT_FALSE(g.FindAssociation(acc, entry).has_value());
  EXPECT_FALSE(g.FindNode(NodeKind::kValue, "go.go_term.acc=GO:1"));
  EXPECT_FALSE(g.FindNode(NodeKind::kKeyword, "kw:go"));
  EXPECT_EQ(g.node_value_text(first.value), "");
  for (EdgeId e : first.edges) {
    EXPECT_TRUE(g.edge_join_a(e).attribute.empty()) << "edge " << e;
    EXPECT_TRUE(g.edge_join_b(e).attribute.empty()) << "edge " << e;
  }
  // A dense change: the revision moves and no record list spans it.
  EXPECT_GT(g.revision(), before_truncate);
  std::vector<GraphDelta> deltas;
  EXPECT_FALSE(g.DeltaSince(before_truncate, &deltas));

  // Re-adding the same tail hands out the same ids and answers the same.
  const Tail second = AddTail(&g, &model);
  EXPECT_EQ(second.value, first.value);
  EXPECT_EQ(second.keyword, first.keyword);
  EXPECT_EQ(second.edges, first.edges);
  EXPECT_EQ(g.FindAssociation(acc, entry), first.edges[0]);
  EXPECT_EQ(g.FindNode(NodeKind::kValue, "go.go_term.acc=GO:1"), first.value);
  EXPECT_EQ(g.node_value_text(second.value), "GO:1");
  EXPECT_EQ(g.edge_join_a(first.edges[1]).attribute, "entry_ac");
  EXPECT_EQ(g.edge_join_b(first.edges[1]).attribute, "name");
}

TEST(SearchGraphTruncateTest, KeepsBaseEdgesAddedToKeptNodesAndBoundsTheArena) {
  Catalog catalog = TwoTableCatalog();
  FeatureSpace space;
  CostModel model(&space, CostModelConfig{});
  SearchGraph g = BuildSearchGraph(catalog, &model);
  const std::size_t nodes = g.num_nodes();
  const std::size_t edges = g.num_edges();

  AddTail(&g, &model);
  const auto full_adjacency = AdjacencyOf(g);
  const std::size_t full_bytes = g.MemoryUsage().adjacency_bytes;
  // Truncating only the overlay nodes keeps the tail's first two edges,
  // which join kept base nodes.
  g.TruncateTo(nodes, edges + 2);
  EXPECT_EQ(g.num_edges(), edges + 2);
  for (NodeId n = 0; n < nodes; ++n) {
    std::vector<EdgeId> expected;
    for (EdgeId e : full_adjacency[n]) {
      if (e < edges + 2) expected.push_back(e);
    }
    EXPECT_EQ(AdjacencyOf(g)[n], expected) << "node " << n;
  }
  // Repeated truncate/re-append cycles reuse the arena instead of
  // growing it.
  g.TruncateTo(nodes, edges);
  for (int cycle = 0; cycle < 50; ++cycle) {
    AddTail(&g, &model);
    EXPECT_EQ(AdjacencyOf(g), full_adjacency) << "cycle " << cycle;
    EXPECT_LE(g.MemoryUsage().adjacency_bytes, full_bytes) << "cycle " << cycle;
    g.TruncateTo(nodes, edges);
  }
  g.TruncateTo(0, 0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.FindRelationNode("go.go_term"));
}

}  // namespace
}  // namespace q::graph

namespace q::core {
namespace {

constexpr std::size_t kCommunities = 5;

// An effectively infinite but finite association-cost threshold: it
// prunes no edge, yet disqualifies the view from rebasing, so every
// refresh re-expands its query graph from scratch.
constexpr double kRebuildEveryTimeThreshold = 1e300;

struct RebaseHarness {
  data::OnboardingDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  explicit RebaseHarness(bool rebuild_every_time) {
    dataset = data::BuildOnboardingDataset(kCommunities);
    QSystemConfig config;
    config.view.top_k.k = 3;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    if (rebuild_every_time) {
      config.view.query_graph.association_cost_threshold =
          kRebuildEveryTimeThreshold;
    }
    // MAD only, as in the onboarding suite: keeps the communities apart
    // unless an operation deliberately links them.
    config.use_metadata_matcher = false;
    config.steiner_threads = -1;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.sources) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    for (const auto& keywords : dataset.keyword_queries) {
      auto id = q->CreateView(keywords);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }
};

// A copy of community `target`'s first table under a new source: its
// attribute names match the community's view keyword and its values
// align with the original's, so the view's match set grows.
std::shared_ptr<relational::DataSource> MakeMirrorSource(
    const data::OnboardingDataset& dataset, std::size_t serial,
    std::size_t target) {
  const relational::Table& original = *dataset.sources[target]->tables()[0];
  const std::string name = "msrc" + data::OnboardingCode(serial);
  auto table = std::make_shared<relational::Table>(relational::RelationSchema(
      name, original.schema().relation(), original.schema().attributes()));
  for (std::size_t r = 0; r < original.num_rows(); ++r) {
    Q_CHECK_OK(table->AppendRow(original.row(r)));
  }
  auto source = std::make_shared<relational::DataSource>(name);
  Q_CHECK_OK(source->AddTable(std::move(table)));
  return source;
}

struct RebaseOp {
  enum Kind {
    kDisjoint,
    kOverlap,
    kMirror,
    kAssociate,
    kTouchNode,
    kFeedback,
  };
  Kind kind = kDisjoint;
  std::size_t serial = 0;
  std::size_t target = 0;
  std::vector<match::AlignmentCandidate> candidates;
  std::string node_label;      // kTouchNode: an attribute node's label
  std::size_t view = 0;        // kFeedback
  std::size_t tree_index = 0;  // kFeedback: index into the view's trees
};

void Apply(RebaseHarness* sys, const RebaseOp& op) {
  QSystem& q = *sys->q;
  switch (op.kind) {
    case RebaseOp::kDisjoint:
      ASSERT_TRUE(
          q.RegisterAndAlignSource(data::MakeDisjointSource(op.serial)).ok());
      break;
    case RebaseOp::kOverlap:
      ASSERT_TRUE(q.RegisterAndAlignSource(
                       data::MakeOverlappingSource(op.serial, op.target))
                      .ok());
      break;
    case RebaseOp::kMirror:
      ASSERT_TRUE(q.RegisterAndAlignSource(
                       MakeMirrorSource(sys->dataset, op.serial, op.target))
                      .ok());
      break;
    case RebaseOp::kAssociate:
      ASSERT_TRUE(q.AddAssociations(op.candidates).ok());
      ASSERT_TRUE(q.RefreshAllViews().ok());
      break;
    case RebaseOp::kTouchNode: {
      // Journals a kNodeMutated record on a pre-existing node (attribute
      // nodes carry no value text, so nothing observable changes).
      graph::SearchGraph& g = q.mutable_search_graph();
      auto node = g.FindNode(graph::NodeKind::kAttribute, op.node_label);
      ASSERT_TRUE(node.has_value());
      g.SetNodeValueText(*node, "");
      ASSERT_TRUE(q.RefreshAllViews().ok());
      break;
    }
    case RebaseOp::kFeedback: {
      query::ViewResult read = q.ReadView(sys->view_ids[op.view]);
      ASSERT_LT(op.tree_index, read.state->trees.size());
      ASSERT_TRUE(q.ApplyFeedback(sys->view_ids[op.view],
                                  read.state->trees[op.tree_index])
                      .ok());
      break;
    }
  }
}

// Two random attribute nodes of the current graph; about half the time an
// existing association's endpoints instead, so the candidate merges.
RebaseOp DrawAssociation(const graph::SearchGraph& g, util::Rng* rng) {
  RebaseOp op;
  op.kind = RebaseOp::kAssociate;
  std::vector<graph::NodeId> attrs;
  for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).kind == graph::NodeKind::kAttribute) attrs.push_back(n);
  }
  const std::vector<graph::EdgeId> existing =
      g.EdgesOfKind(graph::EdgeKind::kAssociation);
  for (int i = 0; i < 2; ++i) {
    graph::NodeId a = attrs[rng->Uniform(attrs.size())];
    graph::NodeId b = attrs[rng->Uniform(attrs.size())];
    if (!existing.empty() && rng->Uniform(2) == 0) {
      const graph::EdgeView e = g.edge(existing[rng->Uniform(existing.size())]);
      a = e.u;
      b = e.v;
    }
    if (a == b) continue;
    match::AlignmentCandidate c;
    c.a = g.node(a).attr;
    c.b = g.node(b).attr;
    c.confidence = 0.05 * static_cast<double>(1 + rng->Uniform(19));
    // "mad" is the enabled matcher; "metadata" votes leave it silent, so
    // ReconcileMissingMatcherFeatures re-features those edges.
    c.matcher = rng->Uniform(2) == 0 ? "mad" : "metadata";
    op.candidates.push_back(std::move(c));
  }
  return op;
}

void ExpectSameQueryGraph(const query::QueryGraph& got,
                          const query::QueryGraph& want,
                          const std::string& label) {
  const graph::SearchGraph& a = got.graph;
  const graph::SearchGraph& b = want.graph;
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (graph::NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node(n).kind, b.node(n).kind) << label << " node " << n;
    EXPECT_EQ(a.node(n).label, b.node(n).label) << label << " node " << n;
    EXPECT_EQ(a.node(n).attr, b.node(n).attr) << label << " node " << n;
    EXPECT_EQ(a.node_value_text(n), b.node_value_text(n))
        << label << " node " << n;
    EXPECT_EQ(a.FindNode(a.node(n).kind, a.node(n).label), n)
        << label << " node " << n;
    const std::vector<graph::EdgeId> adj_a(a.edges_of(n).begin(),
                                           a.edges_of(n).end());
    const std::vector<graph::EdgeId> adj_b(b.edges_of(n).begin(),
                                           b.edges_of(n).end());
    EXPECT_EQ(adj_a, adj_b) << label << " adjacency of node " << n;
  }
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    const graph::EdgeView x = a.edge(e);
    const graph::EdgeView y = b.edge(e);
    EXPECT_EQ(x.u, y.u) << label << " edge " << e;
    EXPECT_EQ(x.v, y.v) << label << " edge " << e;
    EXPECT_EQ(x.kind, y.kind) << label << " edge " << e;
    EXPECT_EQ(x.fixed_zero, y.fixed_zero) << label << " edge " << e;
    EXPECT_TRUE(x.features() == y.features()) << label << " edge " << e;
    EXPECT_EQ(x.provenance(), y.provenance()) << label << " edge " << e;
    EXPECT_EQ(x.join_a(), y.join_a()) << label << " edge " << e;
    EXPECT_EQ(x.join_b(), y.join_b()) << label << " edge " << e;
    if (x.kind == graph::EdgeKind::kAssociation) {
      EXPECT_EQ(a.FindAssociation(x.u, x.v), b.FindAssociation(y.u, y.v))
          << label << " edge " << e;
    }
  }
  EXPECT_EQ(got.keyword_nodes, want.keyword_nodes) << label;
  EXPECT_EQ(got.keyword_fingerprint, want.keyword_fingerprint) << label;
  EXPECT_EQ(got.base_nodes, want.base_nodes) << label;
  EXPECT_EQ(got.base_edges, want.base_edges) << label;
  EXPECT_EQ(got.base_revision, want.base_revision) << label;
}

query::QueryGraph FreshBuild(QSystem& q, std::size_t id) {
  auto built = query::BuildQueryGraph(
      q.search_graph(), q.text_index(), q.view(id).keywords(),
      &q.cost_model(), q.weights(), q.config().view.query_graph);
  Q_CHECK_OK(built.status());
  return std::move(built).value();
}

void ExpectSameOutput(const query::ViewSnapshot& a,
                      const query::ViewSnapshot& b, const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].cost, b.trees[i].cost) << label << " tree " << i;
    // Both systems rebuilt or rebased every view at every step, so even
    // overlay edge ids agree.
    EXPECT_EQ(a.trees[i].edges, b.trees[i].edges) << label << " tree " << i;
  }
  EXPECT_EQ(a.results.columns, b.results.columns) << label;
  ASSERT_EQ(a.results.rows.size(), b.results.rows.size()) << label;
  for (std::size_t i = 0; i < a.results.rows.size(); ++i) {
    EXPECT_EQ(a.results.rows[i].cost, b.results.rows[i].cost)
        << label << " row " << i;
    EXPECT_EQ(a.results.rows[i].query_index, b.results.rows[i].query_index)
        << label << " row " << i;
    EXPECT_EQ(a.results.rows[i].values, b.results.rows[i].values)
        << label << " row " << i;
  }
}

// Races QueryView against the writer until stopped.
class Reader {
 public:
  Reader(const QSystem* q, std::size_t num_views)
      : thread_([this, q, num_views] {
          std::size_t next = 0;
          while (!stop_.load(std::memory_order_acquire)) {
            auto result = q->QueryView(next++ % num_views);
            if (!result.ok()) failures_.fetch_add(1);
            reads_.fetch_add(1);
          }
        }) {}
  ~Reader() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  std::size_t failures() const { return failures_.load(); }
  std::size_t reads() const { return reads_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> failures_{0};
  std::atomic<std::size_t> reads_{0};
  std::thread thread_;
};

TEST(QueryRebaseTest, RandomizedRebaseMatchesFreshBuildAndRebuildTwin) {
  constexpr int kSteps = 36;
  RebaseHarness sut(/*rebuild_every_time=*/false);
  RebaseHarness twin(/*rebuild_every_time=*/true);
  Reader reader(sut.q.get(), sut.view_ids.size());

  util::Rng rng(20261017);
  for (int step = 0; step < kSteps; ++step) {
    RebaseOp op;
    const std::size_t serial = static_cast<std::size_t>(step);
    switch (rng.Uniform(6)) {
      case 0:
        op.kind = RebaseOp::kDisjoint;
        op.serial = serial;
        break;
      case 1:
        op.kind = RebaseOp::kOverlap;
        op.serial = serial;
        op.target = rng.Uniform(kCommunities);
        break;
      case 2:
        op.kind = RebaseOp::kMirror;
        op.serial = serial;
        op.target = rng.Uniform(kCommunities);
        break;
      case 3:
        op = DrawAssociation(sut.q->search_graph(), &rng);
        break;
      case 4: {
        op.kind = RebaseOp::kTouchNode;
        const graph::SearchGraph& g = sut.q->search_graph();
        graph::NodeId n = 0;
        do {
          n = static_cast<graph::NodeId>(rng.Uniform(g.num_nodes()));
        } while (g.node(n).kind != graph::NodeKind::kAttribute);
        op.node_label = g.node(n).label;
        break;
      }
      default: {
        op.kind = RebaseOp::kFeedback;
        op.view = rng.Uniform(sut.view_ids.size());
        const auto state = sut.q->ReadView(sut.view_ids[op.view]).state;
        ASSERT_FALSE(state->trees.empty());
        op.tree_index = rng.Uniform(state->trees.size());
        break;
      }
    }
    Apply(&sut, op);
    Apply(&twin, op);
    if (HasFatalFailure()) return;

    for (std::size_t i = 0; i < sut.view_ids.size(); ++i) {
      const std::string label =
          "step " + std::to_string(step) + " view " + std::to_string(i);
      const std::size_t id = sut.view_ids[i];
      ExpectSameQueryGraph(sut.q->view(id).query_graph(),
                           FreshBuild(*sut.q, id), label);
      EXPECT_EQ(query::KeywordMatchFingerprint(
                    sut.q->text_index(), sut.q->view(id).keywords(),
                    sut.q->config().view.query_graph,
                    sut.q->cost_model().config().num_bins),
                sut.q->view(id).query_graph().keyword_fingerprint)
          << label;
      ExpectSameOutput(*sut.q->ReadView(id).state,
                       *twin.q->ReadView(twin.view_ids[i]).state, label);
      if (HasFatalFailure()) return;
    }
  }
  reader.Stop();
  EXPECT_EQ(reader.failures(), 0u);
  EXPECT_GT(reader.reads(), 0u);

  // Both sides of the rebase ran: incremental rebases on the system under
  // test, none on the twin, whose pruning threshold forbids them.
  const RefreshEngineStats stats = sut.q->refresh_engine().stats();
  EXPECT_GT(stats.query_graphs_rebased, 0u);
  EXPECT_GT(stats.snapshots_built, stats.query_graphs_rebased)
      << "the node-mutation fall-back never re-expanded a view";
  EXPECT_GT(stats.structural_edges_propagated, 0u)
      << "no merge-only step took the in-place patch path";
  EXPECT_EQ(twin.q->refresh_engine().stats().query_graphs_rebased, 0u);
}

TEST(QueryRebaseTest, FootprintStaysNearAFreshBuildAfterManyRebases) {
  constexpr int kRebases = 100;
  RebaseHarness sut(/*rebuild_every_time=*/false);
  util::Rng rng(7);
  for (int step = 0; step < kRebases; ++step) {
    RebaseOp op;
    op.serial = static_cast<std::size_t>(step);
    switch (step % 4) {
      case 0:
        op.kind = RebaseOp::kOverlap;
        op.target = rng.Uniform(kCommunities);
        break;
      case 1:
        op = DrawAssociation(sut.q->search_graph(), &rng);
        break;
      default:
        op.kind = RebaseOp::kDisjoint;
        break;
    }
    Apply(&sut, op);
    if (HasFatalFailure()) return;
  }
  const RefreshEngineStats stats = sut.q->refresh_engine().stats();
  EXPECT_GE(stats.query_graphs_rebased,
            static_cast<std::size_t>(kRebases) * sut.view_ids.size() / 2);
  for (std::size_t i = 0; i < sut.view_ids.size(); ++i) {
    const std::size_t id = sut.view_ids[i];
    const query::QueryGraph fresh = FreshBuild(*sut.q, id);
    ExpectSameQueryGraph(sut.q->view(id).query_graph(), fresh,
                         "view " + std::to_string(i));
    const graph::SearchGraph& rebased_graph =
        sut.q->view(id).query_graph().graph;
    const double rebased =
        static_cast<double>(rebased_graph.MemoryUsage().total());
    const double built =
        static_cast<double>(fresh.graph.MemoryUsage().total());
    EXPECT_LE(rebased, 1.10 * built) << "view " << i;
  }
}

}  // namespace
}  // namespace q::core
