#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "align/aligner.h"
#include "align/view_context.h"
#include "data/gbco.h"
#include "graph/cost_model.h"
#include "graph/graph_builder.h"
#include "match/matcher.h"
#include "match/metadata_matcher.h"
#include "match/value_overlap.h"

namespace q::align {
namespace {

// Fixture: GBCO catalog with one source held out as "new".
class AlignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GbcoConfig config;
    config.base_rows = 30;
    dataset_ = data::BuildGbco(config);
    new_source_ = dataset_.catalog.FindSource("tissue");
    ASSERT_NE(new_source_, nullptr);

    // Existing catalog = everything but the new source.
    for (const auto& src : dataset_.catalog.sources()) {
      if (src->name() != "tissue") {
        ASSERT_TRUE(existing_.AddSource(src).ok());
      }
    }
    model_ = std::make_unique<graph::CostModel>(&space_,
                                                graph::CostModelConfig{});
    graph_ = graph::BuildSearchGraph(existing_, model_.get());
    weights_ = std::make_unique<graph::WeightVector>(&space_);
  }

  AlignContext SeededContext(double alpha) {
    AlignContext ctx;
    ctx.alpha = alpha;
    ctx.top_y = 2;
    // Seed at the sample relation (as if the view's keywords matched it).
    auto rel = graph_.FindRelationNode("sample.sample");
    EXPECT_TRUE(rel.has_value());
    ctx.keyword_seeds.emplace_back(*rel, 0.0);
    return ctx;
  }

  data::GbcoDataset dataset_;
  relational::Catalog existing_;
  std::shared_ptr<relational::DataSource> new_source_;
  graph::FeatureSpace space_;
  std::unique_ptr<graph::CostModel> model_;
  graph::SearchGraph graph_;
  std::unique_ptr<graph::WeightVector> weights_;
};

TEST_F(AlignTest, ExhaustiveVisitsAllRelations) {
  ExhaustiveAligner aligner;
  match::CountingMatcher matcher;
  AlignerStats stats;
  auto result = aligner.Align(graph_, *weights_, existing_, *new_source_,
                              SeededContext(1.0), &matcher, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.relations_considered, 17u);  // 18 - the held-out source
  // Comparisons = sum over relations of |attrs| * |tissue attrs(8)|.
  EXPECT_EQ(stats.attribute_comparisons, (187u - 8u) * 8u);
}

TEST_F(AlignTest, ViewBasedConsidersOnlyNeighborhood) {
  ViewBasedAligner aligner;
  match::CountingMatcher matcher;
  AlignerStats stats;
  // Zero alpha: only the seeded relation itself (membership edges free).
  auto result = aligner.Align(graph_, *weights_, existing_, *new_source_,
                              SeededContext(0.0), &matcher, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.relations_considered, 1u);
  EXPECT_EQ(stats.attribute_comparisons, 10u * 8u);  // sample(10) x tissue(8)
}

TEST_F(AlignTest, ViewBasedNeighborhoodGrowsWithAlpha) {
  ViewBasedAligner aligner;
  match::CountingMatcher m1, m2;
  AlignerStats small_stats, large_stats;
  ASSERT_TRUE(aligner
                  .Align(graph_, *weights_, existing_, *new_source_,
                         SeededContext(0.0), &m1, &small_stats)
                  .ok());
  ASSERT_TRUE(aligner
                  .Align(graph_, *weights_, existing_, *new_source_,
                         SeededContext(1e9), &m2, &large_stats)
                  .ok());
  EXPECT_LE(small_stats.relations_considered,
            large_stats.relations_considered);
  // With unbounded alpha the neighborhood covers exactly the relations
  // FK-reachable from the seed: all of GBCO's linked component except the
  // held-out tissue source, and excluding the isolated antibody and
  // cell_line relations.
  EXPECT_EQ(large_stats.relations_considered, 15u);
}

TEST_F(AlignTest, ViewBasedMatchesExhaustiveWithinNeighborhood) {
  // With a fully connected graph (alpha covering everything via
  // association edges), ViewBased must propose the same candidates as
  // Exhaustive. Wire sample.sample_id to every other relation's first
  // attribute to make everything reachable.
  auto sample_attr = graph_.FindAttributeNode(
      relational::AttributeId{"sample", "sample", "sample_id"});
  ASSERT_TRUE(sample_attr.has_value());
  for (const auto& src : existing_.sources()) {
    if (src->name() == "sample") continue;
    const auto& schema = src->tables()[0]->schema();
    auto other = graph_.FindAttributeNode(schema.IdOf(0));
    ASSERT_TRUE(other.has_value());
    graph_.AddAssociationEdge(
        *sample_attr, *other,
        model_->AssociationFeatures("m", 0.9, "sample.sample",
                                    schema.QualifiedName(),
                                    schema.QualifiedName()),
        graph::MatcherScore{"m", 0.9});
  }

  match::MetadataMatcher m1, m2;
  ExhaustiveAligner exhaustive;
  ViewBasedAligner view_based;
  AlignerStats s1, s2;
  auto r1 = exhaustive.Align(graph_, *weights_, existing_, *new_source_,
                             SeededContext(1e9), &m1, &s1);
  auto r2 = view_based.Align(graph_, *weights_, existing_, *new_source_,
                             SeededContext(1e9), &m2, &s2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(s1.attribute_comparisons, s2.attribute_comparisons);
  ASSERT_EQ(r1->size(), r2->size());
  for (std::size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].PairKey(), (*r2)[i].PairKey());
    EXPECT_DOUBLE_EQ((*r1)[i].confidence, (*r2)[i].confidence);
  }
}

TEST_F(AlignTest, PreferentialRespectsBudgetAndPrior) {
  PreferentialAligner aligner;
  match::CountingMatcher matcher;
  AlignContext ctx = SeededContext(1.0);
  ctx.max_relations = 3;
  // Prior prefers the gene relation strongly.
  auto gene = graph_.FindRelationNode("gene.gene");
  ASSERT_TRUE(gene.has_value());
  ctx.vertex_prior.emplace_back(*gene, 10.0);

  AlignerStats stats;
  auto result = aligner.Align(graph_, *weights_, existing_, *new_source_,
                              ctx, &matcher, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.relations_considered, 3u);
  // gene.gene has 12 attributes and must be among the 3 compared, so at
  // least 12*8 comparisons happened but far fewer than exhaustive.
  EXPECT_GE(stats.attribute_comparisons, 12u * 8u);
  EXPECT_LT(stats.attribute_comparisons, (187u - 8u) * 8u);
}

TEST_F(AlignTest, RelationVertexPriorNegatesEveryRelationWeight) {
  // Relation features are interned with association edges; intern two
  // here and move one learned weight, then check the prior covers
  // exactly the relation nodes with a "rel:" feature, in node order, each
  // at its weight negated.
  const graph::FeatureId gene_feature = model_->RelationFeature("gene.gene");
  model_->RelationFeature("sample.sample");
  weights_ = std::make_unique<graph::WeightVector>(&space_);
  weights_->Set(gene_feature, 0.75);

  const auto prior = RelationVertexPrior(graph_, space_, *weights_);
  std::vector<std::pair<graph::NodeId, double>> expected;
  for (graph::NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (graph_.node(n).kind != graph::NodeKind::kRelation) continue;
    graph::FeatureId fid;
    if (space_.Find("rel:" + graph_.node(n).label, &fid)) {
      expected.emplace_back(n, -weights_->At(fid));
    }
  }
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(prior, expected);
  auto gene = graph_.FindRelationNode("gene.gene");
  ASSERT_TRUE(gene.has_value());
  EXPECT_NE(std::find(prior.begin(), prior.end(),
                      std::make_pair(*gene, -0.75)),
            prior.end());
}

TEST_F(AlignTest, ValueOverlapFilterReducesComparisons) {
  match::ValueOverlapIndex overlap;
  for (const auto& src : existing_.sources()) {
    for (const auto& t : src->tables()) overlap.IndexTable(*t);
  }
  for (const auto& t : new_source_->tables()) overlap.IndexTable(*t);

  ExhaustiveAligner aligner;
  match::CountingMatcher unfiltered;
  match::CountingMatcher filtered;
  filtered.set_pair_filter(overlap.MakeFilter());

  AlignerStats s_unfiltered, s_filtered;
  ASSERT_TRUE(aligner
                  .Align(graph_, *weights_, existing_, *new_source_,
                         SeededContext(1.0), &unfiltered, &s_unfiltered)
                  .ok());
  ASSERT_TRUE(aligner
                  .Align(graph_, *weights_, existing_, *new_source_,
                         SeededContext(1.0), &filtered, &s_filtered)
                  .ok());
  EXPECT_LT(s_filtered.attribute_comparisons,
            s_unfiltered.attribute_comparisons);
  EXPECT_GT(s_filtered.attribute_comparisons, 0u);
}

}  // namespace
}  // namespace q::align
