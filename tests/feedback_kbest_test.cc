// MIRA k-best reuse in QSystem::ApplyFeedback: when the endorsed view is
// current and searched with MIRA's top-k settings, the update runs
// against the view's published tree list instead of a cold top-k search.
// The referee is the cold path itself — learn::MiraLearner::Update over
// the view's query graph on a copy of the pre-feedback weights — and the
// live weights must match it bit for bit (every value, the revision, and
// the coalesced journal delta) on the reuse path and on every fallback:
// an undrained async view, a MIRA k that differs from the view's, and a
// direct weight write.
// Also: an endorsement naming an edge outside the view's query graph is
// rejected before the weights move.
//
// Runs under the ctest `stress` label (ThreadSanitizer and ASan/UBSan CI
// jobs): the async cases race background repairs against the ack.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"

namespace q::core {
namespace {

constexpr std::size_t kNumViews = 4;

data::InterProGoConfig SmallDataset() {
  data::InterProGoConfig config;
  config.num_go_terms = 80;
  config.num_entries = 60;
  config.num_pubs = 50;
  config.num_journals = 10;
  config.num_methods = 40;
  config.interpro2go_links = 120;
  config.entry2pub_links = 100;
  config.method2pub_links = 80;
  return config;
}

struct System {
  data::InterProGoDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  System(bool async, int mira_k) {
    dataset = data::BuildInterProGo(SmallDataset());
    QSystemConfig config;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    config.steiner_threads = -1;
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
    config.mira.k = mira_k;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    for (std::size_t i = 0; i < kNumViews; ++i) {
      auto id = q->CreateView(
          dataset.keyword_queries[i % dataset.keyword_queries.size()]);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }

  // The tree to endorse in `view`: the last (worst) published tree, so
  // MIRA has a margin to enforce.
  steiner::SteinerTree WorstTree(std::size_t view) const {
    query::ViewResult read = q->ReadView(view);
    Q_CHECK(read.state != nullptr && !read.state->trees.empty());
    return read.state->trees.back();
  }
};

struct KBestCounts {
  std::size_t reused = 0;
  std::size_t searched = 0;
};

KBestCounts Counts(const QSystem& q) {
  const RefreshEngineStats stats = q.refresh_engine().stats();
  return KBestCounts{stats.feedback_kbest_reused,
                     stats.feedback_kbest_searched};
}

std::vector<graph::FeatureDelta> CoalescedSince(const graph::WeightVector& w,
                                                std::uint64_t revision) {
  std::vector<graph::FeatureDelta> deltas;
  Q_CHECK(w.DeltaSince(revision, &deltas));
  graph::CoalesceFeatureDeltas(&deltas);
  return deltas;
}

void ExpectSameWeights(const graph::WeightVector& live,
                       const graph::WeightVector& referee,
                       std::uint64_t revision_before,
                       const std::string& label) {
  EXPECT_EQ(live.revision(), referee.revision()) << label;
  ASSERT_EQ(live.values().size(), referee.values().size()) << label;
  for (std::size_t f = 0; f < live.values().size(); ++f) {
    // Exact: the update must be bit-identical, not merely close.
    EXPECT_EQ(live.values()[f], referee.values()[f])
        << label << " feature " << f;
  }
  const std::vector<graph::FeatureDelta> a =
      CoalescedSince(live, revision_before);
  const std::vector<graph::FeatureDelta> b =
      CoalescedSince(referee, revision_before);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " delta " << i;
    EXPECT_EQ(a[i].old_value, b[i].old_value) << label << " delta " << i;
    EXPECT_EQ(a[i].new_value, b[i].new_value) << label << " delta " << i;
  }
}

// Endorses `tree` in `view` and referees the live update against a cold
// MiraLearner::Update on a copy of the pre-feedback weights. The referee
// runs after the call so the call lands right behind any earlier ack (the
// undrained case below); pure feedback over weight-independent topology
// never rewrites a view's query graph, so the referee sees the same graph
// the update did. Returns which path the call took.
KBestCounts EndorseAndReferee(QSystem& q, std::size_t view,
                              const steiner::SteinerTree& tree,
                              const std::string& label) {
  graph::WeightVector referee = q.weights();
  const std::uint64_t revision_before = referee.revision();
  const KBestCounts before = Counts(q);
  EXPECT_TRUE(q.ApplyFeedback(view, tree).ok()) << label;
  const KBestCounts after = Counts(q);
  const KBestCounts step{after.reused - before.reused,
                         after.searched - before.searched};
  EXPECT_EQ(step.reused + step.searched, 1u) << label;

  const query::QueryGraph& qg = q.view(view).query_graph();
  learn::MiraLearner learner(q.config().mira);
  EXPECT_TRUE(learner.Update(qg.graph, qg.keyword_nodes, tree, &referee).ok())
      << label;
  ExpectSameWeights(q.weights(), referee, revision_before, label);
  return step;
}

TEST(FeedbackKBestTest, SyncFeedbackReusesThePublishedList) {
  System s(/*async=*/false, /*mira_k=*/5);
  std::size_t reused = 0;
  for (int round = 0; round < 8; ++round) {
    const std::size_t view = s.view_ids[round % kNumViews];
    const KBestCounts step =
        EndorseAndReferee(*s.q, view, s.WorstTree(view),
                          "round " + std::to_string(round));
    // Right after creation every view is committed at the live revisions.
    if (round == 0) {
      EXPECT_EQ(step.reused, 1u);
    }
    reused += step.reused;
  }
  // Later rounds may fall back on a view the relevance gate skipped (its
  // slot keeps its older revisions), but most views stay current.
  EXPECT_GT(reused, 1u);
}

TEST(FeedbackKBestTest, DrainedAsyncFeedbackReusesThePublishedList) {
  System s(/*async=*/true, /*mira_k=*/5);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(s.q->DrainRefreshes().ok());
    const std::size_t view = s.view_ids[round % kNumViews];
    const KBestCounts step =
        EndorseAndReferee(*s.q, view, s.WorstTree(view),
                          "round " + std::to_string(round));
    // Drained: every view was validated at the current epoch.
    EXPECT_EQ(step.reused, 1u) << "round " << round;
  }
  ASSERT_TRUE(s.q->DrainRefreshes().ok());
}

TEST(FeedbackKBestTest, UndrainedAsyncViewFallsBackToAColdSearch) {
  System s(/*async=*/true, /*mira_k=*/5);
  const std::size_t view = s.view_ids[0];
  // Two endorsements back to back: the second lands while the first's
  // repair of the view is queued or running, so the view is stale and
  // its published list predates the current weights. Whether the repair
  // wins the race is up to the scheduler; retry until the second call
  // observes the stale view (the referee must hold on every call).
  std::size_t fallbacks = 0;
  for (int attempt = 0; attempt < 20 && fallbacks == 0; ++attempt) {
    const std::string label = "attempt " + std::to_string(attempt);
    ASSERT_TRUE(s.q->DrainRefreshes().ok());
    const steiner::SteinerTree first = s.WorstTree(view);
    const steiner::SteinerTree second = s.q->ReadView(view).state->trees[0];
    const std::uint64_t revision = s.q->weights().revision();
    EndorseAndReferee(*s.q, view, first, label + " first");
    if (s.q->weights().revision() == revision) continue;  // no update
    fallbacks += EndorseAndReferee(*s.q, view, second, label + " second")
                     .searched;
  }
  EXPECT_GT(fallbacks, 0u);
  ASSERT_TRUE(s.q->DrainRefreshes().ok());
}

TEST(FeedbackKBestTest, MiraKOtherThanTheViewsFallsBack) {
  for (bool async : {false, true}) {
    System s(async, /*mira_k=*/3);  // views publish k = 5
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(s.q->DrainRefreshes().ok());
      const std::size_t view = s.view_ids[round % kNumViews];
      const KBestCounts step = EndorseAndReferee(
          *s.q, view, s.WorstTree(view),
          std::string(async ? "async" : "sync") + " round " +
              std::to_string(round));
      EXPECT_EQ(step.searched, 1u);
    }
    ASSERT_TRUE(s.q->DrainRefreshes().ok());
  }
}

// A direct mutable_weights() write moves the weights without a refresh
// or a new async epoch, so the published list predates the live weights.
TEST(FeedbackKBestTest, DirectWeightWriteFallsBack) {
  for (bool async : {false, true}) {
    System s(async, /*mira_k=*/5);
    ASSERT_TRUE(s.q->DrainRefreshes().ok());
    const std::size_t view = s.view_ids[0];
    // Make the published best tree expensive, so the fresh k-best list
    // differs from the published one.
    const query::ViewResult read = s.q->ReadView(view);
    const graph::SearchGraph& qg = s.q->view(view).query_graph().graph;
    bool nudged = false;
    for (graph::EdgeId e : read.state->trees[0].edges) {
      for (const auto& [feature, value] : qg.edge(e).features().entries()) {
        if (feature == graph::FeatureSpace::kDefaultFeature) continue;
        s.q->mutable_weights().Nudge(feature, 10.0);
        nudged = true;
      }
    }
    ASSERT_TRUE(nudged);
    const KBestCounts step = EndorseAndReferee(
        *s.q, view, read.state->trees.back(), async ? "async" : "sync");
    EXPECT_EQ(step.searched, 1u) << (async ? "async" : "sync");
    ASSERT_TRUE(s.q->DrainRefreshes().ok());
  }
}

TEST(FeedbackKBestTest, EndorsementOutsideTheQueryGraphIsRejected) {
  System s(/*async=*/false, /*mira_k=*/5);
  const std::size_t view = s.view_ids[0];
  const std::size_t num_edges =
      s.q->view(view).query_graph().graph.num_edges();
  const std::uint64_t revision = s.q->weights().revision();
  const std::vector<double> values = s.q->weights().values();
  const std::size_t logged = s.q->feedback_log().size();
  const KBestCounts counts = Counts(*s.q);

  for (graph::EdgeId bad : {static_cast<graph::EdgeId>(num_edges),
                            std::numeric_limits<graph::EdgeId>::max()}) {
    steiner::SteinerTree tree = s.WorstTree(view);
    tree.edges.push_back(bad);
    const util::Status status = s.q->ApplyFeedback(view, tree);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  }
  EXPECT_EQ(s.q->weights().revision(), revision);
  EXPECT_EQ(s.q->weights().values(), values);
  EXPECT_EQ(s.q->feedback_log().size(), logged);
  EXPECT_EQ(Counts(*s.q).reused, counts.reused);
  EXPECT_EQ(Counts(*s.q).searched, counts.searched);
}

}  // namespace
}  // namespace q::core
