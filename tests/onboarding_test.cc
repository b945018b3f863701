// Streaming source onboarding (async structural deltas): registrations
// routed through the classify-then-repair pipeline must
//
//   * skip views whose structural certificate proves the new source
//     cannot enter their top-k neighborhood — without touching their
//     serving state at all (pointer-identical published snapshots);
//   * fall through for every view the certificate cannot clear,
//     including attachments landing exactly on the alpha-neighborhood
//     boundary (unit-tested with exact doubles, mirroring
//     relevance_gating_test.cc's slack-boundary semantics);
//   * at quiescence, serve output bit-identical to a twin QSystem that
//     rebuilds serially at every step (randomized differential).
//
// Runs under the ctest `stress` label and the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "core/refresh_engine.h"
#include "data/interpro_go.h"
#include "data/onboarding.h"
#include "data/synthetic.h"
#include "util/random.h"

namespace q::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- ClassifyStructuralRelevance boundary semantics -------------------------

steiner::RelevanceCertificate MakeStructCert(double kth, double radius,
                                             std::vector<graph::NodeId> nodes,
                                             std::vector<double> dists) {
  steiner::RelevanceCertificate cert;
  cert.valid = true;
  cert.structural_valid = true;
  cert.kth_cost = kth;
  cert.alpha_radius = radius;
  cert.alpha_nodes = std::move(nodes);
  cert.alpha_dist = std::move(dists);
  return cert;
}

TEST(ClassifyStructuralRelevanceTest, EmptyAttachmentSetAlwaysSkips) {
  // A fully disconnected registration (no FK references, no alignments)
  // skips even when the view has fewer than k answers: no old node gives
  // the new island a path into any tree.
  auto cert = MakeStructCert(kInf, 0.0, {}, {});
  auto d = ClassifyStructuralRelevance(cert, {}, 0.0);
  EXPECT_TRUE(d.skip);
  EXPECT_FALSE(d.attachment_reachable);
}

TEST(ClassifyStructuralRelevanceTest, UnfilledTopKWithAttachmentsFallsThrough) {
  // kth == +inf means the view wants more answers; any reachable
  // attachment could supply one, so distance reasoning is unavailable.
  auto cert = MakeStructCert(kInf, 0.0, {}, {});
  auto d = ClassifyStructuralRelevance(cert, {7}, 0.0);
  EXPECT_FALSE(d.skip);
  EXPECT_TRUE(d.attachment_reachable);
}

TEST(ClassifyStructuralRelevanceTest, AttachmentStrictlyBeyondKthSkips) {
  auto cert = MakeStructCert(1.0, 3.0, {5}, {2.0});
  auto d = ClassifyStructuralRelevance(cert, {5}, 0.0);
  EXPECT_TRUE(d.skip);
  EXPECT_FALSE(d.attachment_reachable);
}

TEST(ClassifyStructuralRelevanceTest, AttachmentExactlyOnTheBoundaryFallsThrough) {
  // Anchor distance == kth cost exactly: a new tree through this node
  // could tie the k-th returned cost and re-rank under the deterministic
  // tie-break, mirroring ClassifyDeltaRelevance's slack-boundary rule.
  auto cert = MakeStructCert(1.0, 3.0, {5}, {1.0});
  auto d = ClassifyStructuralRelevance(cert, {5}, 0.0);
  EXPECT_FALSE(d.skip);
  EXPECT_TRUE(d.attachment_reachable);
}

TEST(ClassifyStructuralRelevanceTest, AttachmentWithinFloatMarginFallsThrough) {
  auto cert = MakeStructCert(1.0, 3.0, {5}, {1.0 + 1e-13});
  EXPECT_FALSE(ClassifyStructuralRelevance(cert, {5}, 0.0).skip);
}

TEST(ClassifyStructuralRelevanceTest, NetDecreaseConsumesDistanceSlack) {
  auto cert = MakeStructCert(1.0, 3.0, {5}, {1.4});
  // Without a concurrent weight decrease the attachment is safely far...
  EXPECT_TRUE(ClassifyStructuralRelevance(cert, {5}, 0.0).skip);
  // ...but an outside decrease of 0.5 raises the reachable threshold to
  // 1.5 >= 1.4, so the same attachment falls through.
  EXPECT_FALSE(ClassifyStructuralRelevance(cert, {5}, 0.5).skip);
}

TEST(ClassifyStructuralRelevanceTest, OutOfBallAttachmentUsesTheRadius) {
  // Node 9 is not in the ball: all we know is its distance exceeds the
  // explored radius, which here is comfortably beyond the threshold.
  auto cert = MakeStructCert(1.0, 3.0, {5}, {2.0});
  EXPECT_TRUE(ClassifyStructuralRelevance(cert, {9}, 0.0).skip);
  // A radius exactly at the threshold proves nothing: fall through.
  auto tight = MakeStructCert(1.0, 1.0, {}, {});
  EXPECT_FALSE(ClassifyStructuralRelevance(tight, {9}, 0.0).skip);
}

TEST(ClassifyStructuralRelevanceTest, OneReachableAttachmentPoisonsTheSet) {
  auto cert = MakeStructCert(1.0, 4.0, {3, 5}, {3.5, 0.5});
  EXPECT_TRUE(ClassifyStructuralRelevance(cert, {3}, 0.0).skip);
  auto d = ClassifyStructuralRelevance(cert, {3, 5}, 0.0);
  EXPECT_FALSE(d.skip);
  EXPECT_TRUE(d.attachment_reachable);
}

// --- system-level harness ---------------------------------------------------

struct OnbHarness {
  data::OnboardingDataset dataset;
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  OnbHarness(std::size_t communities, int k, bool async,
             double association_cost_threshold = kInf) {
    dataset = data::BuildOnboardingDataset(communities);
    QSystemConfig config;
    config.view.top_k.k = k;
    config.view.query_graph.association_cost_threshold =
        association_cost_threshold;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    // MAD only: the metadata matcher would align the shared "lka"/"lkb"
    // link-attribute names across communities and merge the islands.
    config.use_metadata_matcher = false;
    config.steiner_threads = -1;
    config.async_refresh = async;
    config.async_repair_threads = async ? 2 : 0;
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

// Served-output bit-identity. Tree costs, the unified output schema, and
// every ranked tuple must agree; tree edge *ids* are deliberately not
// compared — a skipped view keeps serving the snapshot built before the
// registration, whose keyword-overlay edges were numbered off a smaller
// base graph, so overlay ids differ from a freshly rebuilt twin's even
// when the trees are the same trees (the base-graph edge portions and
// all costs and tuples agree).
void ExpectSameViewState(const query::ViewSnapshot& a,
                         const query::ViewSnapshot& b,
                         const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i].cost, b.trees[i].cost) << label << " tree " << i;
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

// --- certificate emission ---------------------------------------------------

TEST(OnboardingTest, CommunityViewsEmitStructuralCertificates) {
  // k=2 matches the two parallel-FK trees per community: the top-k
  // fills, so the structural half carries a finite kth cost and a real
  // anchor ball.
  OnbHarness h(/*communities=*/4, /*k=*/2, /*async=*/false);
  for (std::size_t id : h.view_ids) {
    const auto& cert = h.q->view(id).certificate();
    ASSERT_TRUE(cert.valid) << "view " << id;
    ASSERT_TRUE(cert.structural_valid) << "view " << id;
    EXPECT_EQ(h.q->view(id).trees().size(), 2u) << "view " << id;
    EXPECT_TRUE(std::isfinite(cert.kth_cost)) << "view " << id;
    EXPECT_GT(cert.alpha_radius, cert.kth_cost) << "view " << id;
    EXPECT_FALSE(cert.alpha_nodes.empty()) << "view " << id;
    EXPECT_EQ(cert.alpha_nodes.size(), cert.alpha_dist.size())
        << "view " << id;
    EXPECT_NE(cert.keyword_fingerprint, 0u) << "view " << id;
  }
}

// --- the skip path: disjoint registrations --------------------------------

TEST(OnboardingTest, DisjointSourceSkipsEveryViewPointerIdentically) {
  OnbHarness h(/*communities=*/32, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  std::vector<query::ViewResult> before;
  for (std::size_t id : h.view_ids) before.push_back(h.q->ReadView(id));
  const auto engine_before = h.q->refresh_engine().stats();
  const auto sched_before = h.q->async_scheduler()->stats();

  ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());

  const auto engine_after = h.q->refresh_engine().stats();
  const auto sched_after = h.q->async_scheduler()->stats();
  EXPECT_EQ(sched_after.structural_rounds, sched_before.structural_rounds + 1);
  EXPECT_EQ(sched_after.structural_skips,
            sched_before.structural_skips + h.view_ids.size());
  EXPECT_EQ(sched_after.structural_rebuilds, sched_before.structural_rebuilds);
  EXPECT_EQ(engine_after.views_skipped_structural,
            engine_before.views_skipped_structural + h.view_ids.size());
  EXPECT_EQ(engine_after.structural_gate_checks,
            engine_before.structural_gate_checks + h.view_ids.size());
  EXPECT_EQ(engine_after.structural_gate_fallthroughs,
            engine_before.structural_gate_fallthroughs);
  EXPECT_EQ(engine_after.searches_run, engine_before.searches_run);

  // "Never touches that view" means exactly that: the published snapshot
  // is the same object, not a rebuilt equal one, and it is already fresh
  // at the post-registration epoch.
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    query::ViewResult now = h.q->ReadView(h.view_ids[i]);
    EXPECT_EQ(now.state.get(), before[i].state.get()) << "view " << i;
    EXPECT_FALSE(now.stale) << "view " << i;
  }
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // The certificates were right: a forced from-scratch rebuild of every
  // view lands on bit-identical output.
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *before[i].state,
                        "post-rebuild view " + std::to_string(i));
  }
}

// --- the distance path: a relevant clone far from most views --------------

TEST(OnboardingTest, RelevantSourceSkipsDistantCommunitiesOnly) {
  constexpr std::size_t kCommunities = 8;
  constexpr std::size_t kTarget = 3;
  OnbHarness h(kCommunities, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  std::vector<query::ViewResult> before;
  for (std::size_t id : h.view_ids) before.push_back(h.q->ReadView(id));
  const auto engine_before = h.q->refresh_engine().stats();
  const auto sched_before = h.q->async_scheduler()->stats();

  ASSERT_TRUE(
      h.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, kTarget))
          .ok());

  // The registration must actually have produced an association edge —
  // otherwise the other views would skip via an empty attachment set and
  // the distance rule would go untested.
  bool has_association = false;
  for (graph::EdgeId e :
       h.q->search_graph().EdgesOfKind(graph::EdgeKind::kAssociation)) {
    (void)e;
    has_association = true;
    break;
  }
  ASSERT_TRUE(has_association)
      << "MAD produced no alignment for the overlapping source";

  const auto sched_after = h.q->async_scheduler()->stats();
  const auto engine_after = h.q->refresh_engine().stats();
  EXPECT_EQ(sched_after.structural_skips,
            sched_before.structural_skips + kCommunities - 1);
  EXPECT_EQ(sched_after.structural_rebuilds,
            sched_before.structural_rebuilds + 1);
  EXPECT_GT(engine_after.structural_gate_fallthroughs,
            engine_before.structural_gate_fallthroughs);

  // Distant views: untouched, pointer-identically.
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    if (i == kTarget) continue;
    EXPECT_EQ(h.q->ReadView(h.view_ids[i]).state.get(),
              before[i].state.get())
        << "view " << i;
  }
  ASSERT_TRUE(
      h.q->WaitViewFresh(h.view_ids[kTarget], std::chrono::milliseconds(30000)));
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // Quiescent bit-identity against a serial twin fed the same sequence.
  OnbHarness twin(kCommunities, /*k=*/2, /*async=*/false);
  ASSERT_TRUE(
      twin.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, kTarget))
          .ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "twin view " + std::to_string(i));
  }
}

// --- first appearance: the onboarded source enters the top-k --------------

TEST(OnboardingTest, OnboardedSourceAppearsInRelevantViewTopK) {
  // k=3 leaves head-room above the two base trees, so the tree routed
  // through the onboarded table's association edge enters the ranking.
  constexpr std::size_t kTarget = 1;
  OnbHarness h(/*communities=*/4, /*k=*/3, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  ASSERT_EQ(h.q->ReadView(h.view_ids[kTarget]).state->trees.size(), 2u);

  ASSERT_TRUE(
      h.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, kTarget))
          .ok());
  ASSERT_TRUE(
      h.q->WaitViewFresh(h.view_ids[kTarget], std::chrono::milliseconds(30000)));
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  query::ViewResult fresh = h.q->ReadView(h.view_ids[kTarget]);
  EXPECT_EQ(fresh.state->trees.size(), 3u);
  // Output columns carry bare attribute names (and the onboarded
  // attribute deliberately reuses the keyword name), so appearance is
  // detected through the compiled queries' relation atoms.
  bool appears = false;
  for (const auto& query : fresh.state->queries) {
    for (const std::string& atom : query.atoms) {
      if (atom.find("osrc") != std::string::npos) appears = true;
    }
  }
  EXPECT_TRUE(appears)
      << "onboarded source joins no compiled query of the relevant view";
}

// --- a skipped registration meets later feedback --------------------------

TEST(OnboardingTest, FeedbackRebasesASkippedRegistrationWithoutASerialSearch) {
  OnbHarness h(/*communities=*/4, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  const auto sched_before = h.q->async_scheduler()->stats();
  ASSERT_EQ(sched_before.structural_skips, h.view_ids.size());

  // Endorsing view 0's second tree moves weights its certificate (and
  // the certificates sharing those features) depends on, so the skipped
  // registration is no longer provably irrelevant there: those views are
  // rebased inside the ack, and their searches queued like any repair.
  const auto state = h.q->ReadView(h.view_ids[0]).state;
  ASSERT_EQ(state->trees.size(), 2u);
  ASSERT_TRUE(h.q->ApplyFeedback(h.view_ids[0], state->trees[1]).ok());
  const auto sched_after = h.q->async_scheduler()->stats();
  EXPECT_EQ(sched_after.serial_repairs, sched_before.serial_repairs);
  EXPECT_GT(sched_after.structural_rebuilds, sched_before.structural_rebuilds);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  OnbHarness twin(/*communities=*/4, /*k=*/2, /*async=*/false);
  ASSERT_TRUE(
      twin.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());
  const auto twin_state = twin.q->ReadView(twin.view_ids[0]).state;
  ASSERT_EQ(twin_state->trees.size(), 2u);
  ASSERT_TRUE(twin.q->ApplyFeedback(twin.view_ids[0], twin_state->trees[1])
                  .ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "view " + std::to_string(i));
  }
}

// --- weight-dependent topology ----------------------------------------------

// A finite association-cost threshold makes every view's query-graph
// topology depend on the weights, so no async repair can finish one: a
// registration must repair those views serially inside the ack, the same
// rule a feedback round applies, and the drain must come back clean with
// output bit-identical to a synchronous twin.
TEST(OnboardingTest, FiniteThresholdRegistrationRepairsSeriallyInTheAck) {
  constexpr double kThreshold = 50.0;
  OnbHarness h(/*communities=*/4, /*k=*/2, /*async=*/true, kThreshold);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  OnbHarness twin(/*communities=*/4, /*k=*/2, /*async=*/false, kThreshold);

  const auto sched_before = h.q->async_scheduler()->stats();
  ASSERT_TRUE(
      h.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, 1)).ok());
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  const auto sched_after = h.q->async_scheduler()->stats();
  EXPECT_EQ(sched_after.serial_repairs,
            sched_before.serial_repairs + h.view_ids.size());
  EXPECT_EQ(sched_after.structural_rebuilds, sched_before.structural_rebuilds);

  ASSERT_TRUE(
      twin.q->RegisterAndAlignSource(data::MakeOverlappingSource(0, 1)).ok());
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    const query::ViewResult fresh = h.q->ReadView(h.view_ids[i]);
    EXPECT_FALSE(fresh.stale) << "view " << i;
    EXPECT_FALSE(fresh.state->trees.empty()) << "view " << i;
    ExpectSameViewState(*fresh.state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "view " + std::to_string(i));
  }
}

// --- the bin-level fingerprint on a grown catalog -------------------------

// The InterPro-GO serving catalog grown by 2,000 streaming-catalog
// sources, unsharded, with one view per answerable dataset query. Every
// registration adds documents to the text index, so idf — and with it
// every raw TF-IDF match score — moves; only the mismatch-cost bins a
// query graph is built from are stable.
struct GrownCatalog {
  std::unique_ptr<QSystem> q;
  std::vector<std::size_t> view_ids;

  explicit GrownCatalog(bool async) {
    data::InterProGoConfig dataset_config;
    dataset_config.num_go_terms = 120;
    dataset_config.num_entries = 90;
    dataset_config.num_pubs = 80;
    dataset_config.num_journals = 10;
    dataset_config.num_methods = 60;
    dataset_config.interpro2go_links = 200;
    dataset_config.entry2pub_links = 160;
    dataset_config.method2pub_links = 120;
    const data::InterProGoDataset dataset =
        data::BuildInterProGo(dataset_config);
    QSystemConfig config;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    config.steiner_threads = -1;
    config.async_refresh = async;
    config.async_repair_threads = async ? 1 : 0;
    q = std::make_unique<QSystem>(config);
    for (const auto& src : dataset.catalog.sources()) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    Q_CHECK_OK(q->RunInitialAlignment());
    util::Rng rng(99);
    data::StreamingCatalogOptions streaming;
    streaming.source_prefix = "gsrc";
    Q_CHECK_OK(data::BuildStreamingCatalog(2000, streaming, &rng, nullptr,
                                           &q->cost_model(),
                                           &q->mutable_search_graph()));
    for (const auto& keywords : dataset.keyword_queries) {
      auto id = q->CreateView(keywords);
      if (id.ok()) view_ids.push_back(*id);
    }
  }
};

TEST(OnboardingTest, DisjointSourceSkipsEveryEligibleViewOnAGrownCatalog) {
  GrownCatalog h(/*async=*/true);
  ASSERT_GE(h.view_ids.size(), 5u);
  // The first registration's alignment step re-features the streaming
  // catalog's association edges (ReconcileMissingMatcherFeatures gives
  // them the silent matchers' penalty features), a mutation of
  // pre-existing edges no certificate can discharge. Later registrations
  // find them reconciled.
  ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeDisjointSource(0)).ok());
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  std::vector<query::ViewResult> before;
  for (std::size_t id : h.view_ids) before.push_back(h.q->ReadView(id));
  const auto engine_before = h.q->refresh_engine().stats();

  ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeDisjointSource(1)).ok());
  const auto engine_after = h.q->refresh_engine().stats();
  const std::size_t checks = engine_after.structural_gate_checks -
                             engine_before.structural_gate_checks;
  const std::size_t skips = engine_after.views_skipped_structural -
                            engine_before.views_skipped_structural;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(skips, checks) << "an eligible view fell through";
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  // The skipped views' published output is what a synchronous twin that
  // rebuilt them after the same registrations serves.
  GrownCatalog twin(/*async=*/false);
  ASSERT_EQ(twin.view_ids.size(), h.view_ids.size());
  for (std::size_t serial : {0, 1}) {
    ASSERT_TRUE(
        twin.q->RegisterAndAlignSource(data::MakeDisjointSource(serial)).ok());
  }
  std::size_t compared = 0;
  for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
    query::ViewResult now = h.q->ReadView(h.view_ids[i]);
    if (now.state.get() != before[i].state.get()) continue;  // repaired
    ++compared;
    ExpectSameViewState(*now.state,
                        *twin.q->ReadView(twin.view_ids[i]).state,
                        "skipped view " + std::to_string(i));
  }
  EXPECT_EQ(compared, skips);
}

// --- randomized differential vs a from-scratch serial twin ----------------

// One recorded operation, replayable into a fresh system. Feedback is
// recorded as (view, tree index), not as the tree object: each replaying
// system endorses ITS OWN trees[index] at the matching quiescence point.
// The systems' served outputs are bit-identical there (that is what the
// differential proves step by step), but a tree object carries keyword-
// overlay edge ids from the snapshot's build epoch, which do not port
// across systems whose skipped views kept older snapshots.
struct OnbOp {
  enum Kind { kDisjoint, kOverlap, kFeedback } kind;
  std::size_t serial = 0;      // source serial for registrations
  std::size_t target = 0;      // overlap target community
  std::size_t view = 0;        // feedback view
  std::size_t tree_index = 0;  // feedback: index into the view's trees
};

void Replay(OnbHarness* sys, const std::vector<OnbOp>& ops) {
  for (const OnbOp& op : ops) {
    switch (op.kind) {
      case OnbOp::kDisjoint:
        ASSERT_TRUE(
            sys->q->RegisterAndAlignSource(data::MakeDisjointSource(op.serial))
                .ok());
        break;
      case OnbOp::kOverlap:
        ASSERT_TRUE(sys->q
                        ->RegisterAndAlignSource(
                            data::MakeOverlappingSource(op.serial, op.target))
                        .ok());
        break;
      case OnbOp::kFeedback: {
        query::ViewResult read = sys->q->ReadView(sys->view_ids[op.view]);
        ASSERT_NE(read.state, nullptr);
        ASSERT_LT(op.tree_index, read.state->trees.size());
        ASSERT_TRUE(sys->q
                        ->ApplyFeedback(sys->view_ids[op.view],
                                        read.state->trees[op.tree_index])
                        .ok());
        break;
      }
    }
  }
}

TEST(OnboardingTest, RandomizedDifferentialMatchesSerialRebuildTwin) {
  constexpr std::size_t kCommunities = 6;
  constexpr int kOps = 9;
  OnbHarness h(kCommunities, /*k=*/2, /*async=*/true);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());

  util::Rng rng(20260808);
  std::vector<OnbOp> ops;
  for (int step = 0; step < kOps; ++step) {
    OnbOp op;
    switch (rng.Uniform(3)) {
      case 0:
        op.kind = OnbOp::kDisjoint;
        op.serial = ops.size();
        break;
      case 1:
        op.kind = OnbOp::kOverlap;
        op.serial = ops.size();
        op.target = rng.Uniform(kCommunities);
        break;
      default: {
        op.kind = OnbOp::kFeedback;
        op.view = rng.Uniform(kCommunities);
        // Chosen at quiescence, by index, so the twin endorses its own
        // copy of the identical tree at the same point in the sequence.
        query::ViewResult read = h.q->ReadView(h.view_ids[op.view]);
        ASSERT_NE(read.state, nullptr);
        ASSERT_FALSE(read.state->trees.empty());
        op.tree_index = rng.Uniform(read.state->trees.size());
        break;
      }
    }
    std::vector<OnbOp> single{op};
    Replay(&h, single);
    if (HasFatalFailure()) return;
    ops.push_back(std::move(op));
    ASSERT_TRUE(h.q->DrainRefreshes().ok());

    // Quiescence point: a twin built from scratch and replayed serially
    // must match every view bit for bit — including views the gate
    // skipped this round and every round before.
    OnbHarness twin(kCommunities, /*k=*/2, /*async=*/false);
    Replay(&twin, ops);
    if (HasFatalFailure()) return;
    for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
      ExpectSameViewState(*h.q->ReadView(h.view_ids[i]).state,
                          *twin.q->ReadView(twin.view_ids[i]).state,
                          "step " + std::to_string(step) + " view " +
                              std::to_string(i));
    }
    if (HasFatalFailure()) return;
  }

  // The run exercised both sides of the gate.
  const auto stats = h.q->refresh_engine().stats();
  EXPECT_GT(stats.views_skipped_structural, 0u)
      << "no registration was ever structurally gated";
  EXPECT_GT(stats.structural_gate_checks, stats.views_skipped_structural);
}

}  // namespace
}  // namespace q::core
