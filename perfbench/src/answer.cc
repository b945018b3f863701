// answer: time to first answer. Sessions boot a QSystem on one connected
// catalog (an InterPro-GO base plus 2,000 synthetic two-attribute sources
// wired in by association candidates), create views on keyword pairs,
// re-query them, then save and restore the system. One session per pass
// also applies writes.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "data/onboarding.h"
#include "data/synthetic.h"
#include "layers.h"
#include "match/matcher.h"
#include "ops.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSyntheticSources = 2000;
constexpr std::size_t kViewsPerSession = 10;
// With the write session, a pass takes 6-8 s, so a 40 s run times each
// call five or six times.
constexpr std::size_t kGroupsPerPass = 2;
constexpr int kQueriesPerView = 2;
constexpr int kRestoresPerSession = 6;
// Writes refresh every open view in line (this system is synchronous), so
// a pass applies them in one extra session over 2 views: 3 rounds of a
// feedback and a registration of a vocabulary-disjoint source.
constexpr std::size_t kWriteSessionViews = 2;
constexpr int kWriteRounds = 3;
// The catalog is the same for every run seed: its shape sets the cost of
// every query, and a per-seed catalog would move the medians more than
// any change under test. The run seed orders the sessions and the pairs
// within them.
constexpr std::uint64_t kCatalogSeed = 3234;

struct Inputs {
  q::data::InterProGoDataset dataset;
  std::vector<std::shared_ptr<q::relational::DataSource>> synthetic;
  std::vector<q::match::AlignmentCandidate> candidates;
  std::vector<std::vector<std::string>> pairs;
};

Inputs MakeInputs() {
  q::data::InterProGoConfig base;
  base.seed = DeriveSeed(kCatalogSeed, 1);
  base.num_go_terms = 60;
  base.num_entries = 45;
  base.num_pubs = 40;
  base.num_journals = 8;
  base.num_methods = 30;
  base.interpro2go_links = 90;
  base.entry2pub_links = 80;
  base.method2pub_links = 60;
  Inputs in;
  in.dataset = q::data::BuildInterProGo(base);
  in.pairs = VocabularyPairs(in.dataset);
  // Every synthetic source attaches both attributes to random attributes
  // that exist when it arrives, so the catalog stays one component.
  std::vector<q::relational::AttributeId> attrs;
  for (const auto& src : in.dataset.catalog.sources()) {
    for (const auto& table : src->tables()) {
      for (std::size_t a = 0; a < table->schema().num_attributes(); ++a) {
        attrs.push_back(table->schema().IdOf(a));
      }
    }
  }
  q::util::Rng rng(DeriveSeed(kCatalogSeed, 2));
  for (std::size_t i = 0; i < kSyntheticSources; ++i) {
    in.synthetic.push_back(
        q::data::MakeSyntheticSource("syn" + std::to_string(i), 3, &rng));
    const auto& schema = in.synthetic.back()->tables()[0]->schema();
    for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
      q::match::AlignmentCandidate c;
      c.a = schema.IdOf(a);
      c.b = attrs[rng.Uniform(attrs.size())];
      c.confidence = 0.5;
      c.matcher = "synthetic";
      in.candidates.push_back(c);
      attrs.push_back(schema.IdOf(a));
    }
  }
  return in;
}

q::core::QSystemConfig Config() {
  q::core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = 2;
  return config;
}

q::util::Status Boot(const Inputs& in, std::unique_ptr<q::core::QSystem>* q) {
  *q = std::make_unique<q::core::QSystem>(Config());
  for (const auto& src : in.dataset.catalog.sources()) {
    Q_RETURN_NOT_OK((*q)->RegisterSource(src));
  }
  Q_RETURN_NOT_OK((*q)->RunInitialAlignment());
  for (const auto& src : in.synthetic) {
    Q_RETURN_NOT_OK((*q)->RegisterSource(src));
  }
  return (*q)->AddAssociations(in.candidates);
}

// One session on the fixed pair group `group`: boot, a view per pair,
// re-queries, `write_rounds` rounds of writes, and save/restore. `probe`
// replays every layer when tracing.
void Session(const Inputs& in, const RunOptions& options, std::size_t group,
             const std::vector<std::vector<std::string>>& pairs,
             int write_rounds, LayerProbe* probe, Samples* out,
             Report* report) {
  std::unique_ptr<q::core::QSystem> q;
  const auto start = Clock::now();
  q::util::Status booted = Boot(in, &q);
  if (!booted.ok()) {
    out->setup.Fail();
    report->Diverged("boot failed: " + booted.ToString());
    return;
  }
  out->setup.Ok(MsSince(start), 0);

  std::vector<std::size_t> ids;
  for (const auto& pair : pairs) {
    if (auto id = TimedCreateView(*q, pair, OpKey({group, OpKey(pair)}),
                                  probe, out, report)) {
      ids.push_back(*id);
    }
  }
  for (int r = 0; r < kQueriesPerView; ++r) {
    for (std::size_t id : ids) {
      TimedQuery(*q, id,
                 OpKey({group, OpKey(q->view(id).keywords()),
                        static_cast<std::uint64_t>(r)}),
                 probe, out, report);
    }
  }
  if (ids.empty()) return;

  // The writes depend on the group, not on the seeded order: the views
  // endorsed are picked by keyword rank. Each write is read back.
  std::vector<std::size_t> ranked = ids;
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    return q->view(a).keywords() < q->view(b).keywords();
  });
  Rng writes(DeriveSeed(kCatalogSeed, 100 + group));
  WriteLog log;
  for (int w = 0; w < write_rounds; ++w) {
    const std::size_t id = ranked[Uniform(&writes, ranked.size())];
    const std::size_t tree =
        Uniform(&writes, q->ReadView(id).state->trees.size());
    probe->ReplayMira(*q, id, tree);
    const std::uint64_t round = static_cast<std::uint64_t>(w);
    if (TimedFeedback(*q, id, tree, OpKey({group, round}), probe, out,
                      &log)) {
      TimedQuery(*q, id, OpKey({group, round, 0}), probe, out, report);
    }
    auto source =
        q::data::MakeDisjointSource(group * 100 + static_cast<std::size_t>(w));
    if (TimedRegister(*q, source, OpKey({group, round}), probe, out, &log)) {
      TimedQuery(*q, ranked[Uniform(&writes, ranked.size())],
                 OpKey({group, round, 1}), probe, out, report);
    }
  }
  TimedSaveRestore(std::move(q), Config(),
                   options.scratch + "/answer-snapshot", kRestoresPerSession,
                   OpKey({group}), probe, out, report);
}

}  // namespace

void RunAnswer(const RunOptions& options, Report* report) {
  const Inputs in = MakeInputs();
  // A pass creates kGroupsPerPass * 10 views, 10 per session, on the
  // first pairs of a fixed draw from the vocabulary pairs. The sessions
  // are fixed groups of pairs (a session's heaviest views set the process
  // peak). The run seed orders the pairs within each group, once per run,
  // and the sessions within each pass, so every pass of a run repeats the
  // same calls on the same states.
  std::vector<std::vector<std::vector<std::string>>> groups;
  {
    Rng fixed(DeriveSeed(kCatalogSeed, 5));
    const auto order = DrawPairs(in.pairs, kGroupsPerPass * kViewsPerSession,
                                 &fixed);
    for (std::size_t i = 0; i < order.size(); i += kViewsPerSession) {
      groups.emplace_back(
          order.begin() + static_cast<std::ptrdiff_t>(i),
          order.begin() + static_cast<std::ptrdiff_t>(
                              std::min(order.size(), i + kViewsPerSession)));
    }
  }
  // One more session per pass applies the writes to the first views of
  // group 0 in the fixed draw.
  const std::size_t write_group = groups.size();
  const std::vector<std::vector<std::string>> write_pairs(
      groups[0].begin(), groups[0].begin() + kWriteSessionViews);
  Rng rng(DeriveSeed(options.seed, 5));
  for (auto& group : groups) group = DrawPairs(group, group.size(), &rng);

  // Warm-up, not timed: one full session, so the heap has grown to its
  // working size before the first timed page fault.
  {
    Tracer off(false);
    LayerProbe quiet(&off);
    Samples ignored;
    Session(in, options, 0, groups[0], 1, &quiet, &ignored, report);
  }

  if (options.trace) {
    // Group 0 untraced then traced; the traced pass also plays the write
    // session. CreateView takes about 80 ms at the median here, long
    // enough for the coverage gate.
    RunTracedPair(options, &Samples::create, /*gate_coverage=*/true,
                  [&](std::uint64_t, bool, LayerProbe* probe, Samples* out) {
                    Session(in, options, 0, groups[0], 0, probe, out, report);
                    if (!probe->enabled()) return;
                    Session(in, options, write_group, write_pairs,
                            kWriteRounds, probe, out, report);
                  },
                  report);
    return;
  }
  RunScriptPasses(
      options, groups.size() + 1,
      [&](std::uint64_t g, bool, LayerProbe* probe, Samples* out) {
        if (g == write_group) {
          Session(in, options, g, write_pairs, kWriteRounds, probe, out,
                  report);
        } else {
          Session(in, options, g, groups[g], 0, probe, out, report);
        }
      },
      report);
}

}  // namespace perfbench
