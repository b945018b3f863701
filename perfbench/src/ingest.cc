// ingest: the feedback and onboarding loop. An unsharded async system over
// the serving dataset plus 2,000 streaming sources serves 15 views; one
// client alternates ApplyFeedback and RegisterAndAlignSource, timing each
// ack and the DrainRefreshes that makes every view fresh again, and reads
// a view after each write.

#include <memory>
#include <string>
#include <vector>

#include "data/onboarding.h"
#include "layers.h"
#include "ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kStreamingSources = 2000;
constexpr std::size_t kViews = 15;
// Catalog and views are the same for every run seed (a per-seed view set
// would move the medians more than any change under test).
constexpr std::uint64_t kCatalogSeed = 4242;
constexpr int kStepsPerSession = 12;  // each step: one feedback, one source
constexpr int kRestoresPerSession = 5;
// A pass plays session scripts 0 and 1 in a seeded order. Script j's
// writes (feedback views and trees, registered sources) are the same for
// every run seed, so every pass of a run repeats the same calls. A pass
// takes 4-6 s, so a 40 s run times each call about seven times.
constexpr std::uint64_t kScriptsPerPass = 2;

q::core::QSystemConfig Config() {
  q::core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = 2;
  config.async_refresh = true;
  config.async_repair_threads = 0;  // repairs share the 2-thread pool
  return config;
}

void Session(const ServingInputs& in, const RunOptions& options,
             std::uint64_t script, bool twin_check, LayerProbe* probe,
             Samples* out, Report* report) {
  Rng writes(DeriveSeed(kCatalogSeed, 300 + script));
  // Registered sources alternate between a vocabulary-disjoint island and
  // a mirror of a random InterPro-GO table, generated before timing.
  std::vector<std::shared_ptr<q::relational::DataSource>> sources;
  for (int k = 0; k <= kStepsPerSession; ++k) {
    const std::size_t serial = script * 1000 + static_cast<std::size_t>(k);
    sources.push_back(k % 2 == 0
                          ? q::data::MakeDisjointSource(serial)
                          : MakeMirrorSource(in.dataset, serial, &writes));
    if (sources.back() == nullptr) {
      report->Diverged("mirror source generation failed");
      return;
    }
  }

  std::unique_ptr<q::core::QSystem> q =
      BootServing(in, Config(), probe, out, report);
  if (q == nullptr) return;
  WriteLog log;
  // One step: feedback on a view, read it back; register a source, read a
  // view back. Step 0 is the warm-up, not timed.
  Tracer off(false);
  LayerProbe quiet(&off);
  Samples warmup;
  for (int k = 0; k <= kStepsPerSession; ++k) {
    LayerProbe* p = k == 0 ? &quiet : probe;
    Samples* s = k == 0 ? &warmup : out;
    const std::size_t id = Uniform(&writes, q->num_views());
    const std::size_t tree =
        Uniform(&writes, q->ReadView(id).state->trees.size());
    p->ReplayMira(*q, id, tree);
    const std::uint64_t step = static_cast<std::uint64_t>(k);
    if (TimedFeedback(*q, id, tree, OpKey({script, step}), p, s, &log)) {
      TimedQuery(*q, id, OpKey({script, step, 0}), p, s, report);
    }
    if (TimedRegister(*q, sources[static_cast<std::size_t>(k)],
                      OpKey({script, step}), p, s, &log)) {
      TimedQuery(*q, Uniform(&writes, q->num_views()),
                 OpKey({script, step, 1}), p, s, report);
    }
  }
  EndServingSession(std::move(q), in, Config(), log,
                    options.scratch + "/ingest-snapshot", kRestoresPerSession,
                    OpKey({script}), twin_check, probe, out, report);
}

}  // namespace

void RunIngest(const RunOptions& options, Report* report) {
  q::data::StreamingCatalogOptions streaming;
  streaming.source_prefix = "gsrc";
  const ServingInputs in =
      MakeServingInputs(kCatalogSeed, kViews, kStreamingSources, streaming);
  // Warm-up, not timed: one boot, so the heap has grown to its working
  // size before the first timed CreateView.
  {
    Tracer off(false);
    LayerProbe quiet(&off);
    Samples ignored;
    BootServing(in, Config(), &quiet, &ignored, report);
  }
  const SessionFn session = [&](std::uint64_t script, bool twin_check,
                                LayerProbe* probe, Samples* out) {
    Session(in, options, script, twin_check, probe, out, report);
  };
  if (options.trace) {
    // Views here take about 5 ms to create, so the coverage ratio swung
    // between 0.89 and 1.10 over identical traced runs: reported, not
    // gated.
    RunTracedPair(options, &Samples::fb_fresh, /*gate_coverage=*/false,
                  session, report);
  } else {
    RunScriptPasses(options, kScriptsPerPass, session, report);
  }
}

}  // namespace perfbench
