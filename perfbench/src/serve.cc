// serve: catalog-scale reads under paced writes. A sharded, async system
// over the serving dataset plus 10,000 streaming-catalog sources serves
// 15 views. Each epoch, two closed-loop reader threads run a fixed number
// of QueryView calls on Zipf-skewed views while the main thread issues one
// ApplyFeedback and drains it. After the epochs the session registers
// three vocabulary-disjoint sources and saves/restores the system.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/onboarding.h"
#include "layers.h"
#include "ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kStreamingSources = 10000;
constexpr std::size_t kViews = 15;
// Catalog and views are the same for every run seed (a per-seed view set
// would move the medians more than any change under test).
constexpr std::uint64_t kCatalogSeed = 4242;
constexpr int kReaders = 2;
constexpr int kQueriesPerReader = 60;
constexpr int kEpochsPerSession = 12;
constexpr int kRegistersPerSession = 3;
constexpr int kRestoresPerSession = 5;
constexpr double kZipfTheta = 0.99;
// A pass plays session scripts 0 and 1 in a seeded order. Script j's
// writes (feedback views and trees, registered sources) are the same for
// every run seed, and its readers' streams are drawn from the run seed
// and j, so every pass of a run repeats the same calls. A pass takes
// 7-9 s, so a 40 s run times each call about five times.
constexpr std::uint64_t kScriptsPerPass = 2;

q::core::QSystemConfig Config() {
  q::core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  config.steiner_threads = -1;
  config.sharded_search = true;
  config.async_refresh = true;
  config.async_repair_threads = 1;
  return config;
}

void Session(const ServingInputs& in, const RunOptions& options,
             std::uint64_t script, std::uint64_t reads_seed, bool twin_check,
             LayerProbe* probe, Samples* out, Report* report) {
  Rng writes(DeriveSeed(kCatalogSeed, 200 + script));
  Rng reads(reads_seed);
  std::unique_ptr<q::core::QSystem> q =
      BootServing(in, Config(), probe, out, report);
  if (q == nullptr) return;
  // Warm-up, not timed: one QueryView of every view.
  for (std::size_t id = 0; id < q->num_views(); ++id) (void)q->QueryView(id);

  // View i has popularity rank i (the view set is itself a seeded draw).
  const Zipfian zipf(q->num_views(), kZipfTheta);
  WriteLog log;
  for (int epoch = 0; epoch < kEpochsPerSession; ++epoch) {
    const std::size_t id = Uniform(&writes, q->num_views());
    const std::size_t tree =
        Uniform(&writes, q->ReadView(id).state->trees.size());
    probe->ReplayMira(*q, id, tree);
    std::vector<Rng> reader_rngs;
    for (int r = 0; r < kReaders; ++r) reader_rngs.emplace_back(reads());
    std::atomic<bool> go{false};
    std::vector<OpSamples> got(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng& my = reader_rngs[static_cast<std::size_t>(r)];
        OpSamples& mine = got[static_cast<std::size_t>(r)];
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kQueriesPerReader; ++i) {
          const std::size_t view = zipf.Next(&my);
          const auto t0 = Clock::now();
          auto answer = q->QueryView(view);
          const double ms = MsSince(t0);
          if (!answer.ok() || answer->trees.empty()) {
            mine.Fail();
          } else {
            mine.Ok(ms, OpKey({script, static_cast<std::uint64_t>(epoch),
                               static_cast<std::uint64_t>(r),
                               static_cast<std::uint64_t>(i)}));
          }
        }
      });
    }
    const auto window = Clock::now();
    go.store(true, std::memory_order_release);
    const std::uint64_t key =
        OpKey({script, static_cast<std::uint64_t>(epoch)});
    TimedFeedback(*q, id, tree, key, probe, out, &log);
    for (auto& t : readers) t.join();
    const double window_ms = MsSince(window);
    std::uint64_t answered = 0;
    for (const OpSamples& r : got) {
      out->query.Merge(r);
      answered += r.ms.size();
    }
    out->AddQueryWindow(window_ms, key, answered);
  }
  for (int k = 0; k < kRegistersPerSession; ++k) {
    TimedRegister(*q, q::data::MakeDisjointSource(script * 100 + k),
                  OpKey({script, static_cast<std::uint64_t>(k)}), probe, out,
                  &log);
  }
  EndServingSession(std::move(q), in, Config(), log,
                    options.scratch + "/serve-snapshot", kRestoresPerSession,
                    OpKey({script}), twin_check, probe, out, report);
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  const ServingInputs in = MakeServingInputs(
      kCatalogSeed, kViews, kStreamingSources,
      q::data::StreamingCatalogOptions());
  // Warm-up, not timed: one boot, so the heap has grown to its working
  // size before the first timed CreateView.
  {
    Tracer off(false);
    LayerProbe quiet(&off);
    Samples ignored;
    BootServing(in, Config(), &quiet, &ignored, report);
  }
  if (options.trace) {
    const std::uint64_t reads_seed = DeriveSeed(options.seed, 7);
    // CreateView is short here (about 20 ms), so the coverage ratio is
    // reported, not gated (see ingest.cc).
    RunTracedPair(options, &Samples::query, /*gate_coverage=*/false,
                  [&](std::uint64_t script, bool twin_check, LayerProbe* probe,
                      Samples* out) {
                    Session(in, options, script, reads_seed, twin_check,
                            probe, out, report);
                  },
                  report);
    return;
  }
  RunScriptPasses(options, kScriptsPerPass,
                  [&](std::uint64_t script, bool twin_check, LayerProbe* probe,
                      Samples* out) {
                    Session(in, options, script,
                            DeriveSeed(options.seed, 100 + script),
                            twin_check, probe, out, report);
                  },
                  report);
}

}  // namespace perfbench
