#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

// The timed user operations, shared by every workload. Each call records
// one sample or one failure in `out`, opens the matching span, and, in a
// traced run, feeds the layer probe (replays and stats deltas).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/q_system.h"
#include "data/interpro_go.h"
#include "data/synthetic.h"
#include "layers.h"

namespace perfbench {

// CreateView as call `key`; a view with no tree is a failure. In a traced
// run the view's pipeline is replayed layer by layer right after.
std::optional<std::size_t> TimedCreateView(
    q::core::QSystem& q, const std::vector<std::string>& keywords,
    std::uint64_t key, LayerProbe* probe, Samples* out, Report* report);

// QueryView of a quiescent view by the single client, as call `key`; the
// answer must equal the view's published snapshot bit for bit.
void TimedQuery(q::core::QSystem& q, std::size_t id, std::uint64_t key,
                LayerProbe* probe, Samples* out, Report* report);

// The committed writes of one session, in commit order, for the twin
// replay. Feedback is kept by tree index: views whose structural
// certificate skipped a registration keep serving trees numbered on an
// older overlay, so edge ids do not port between systems; costs and rows
// must.
struct WriteLog {
  struct Event {
    bool is_register = false;
    std::size_t view = 0;
    std::size_t tree_index = 0;
    std::shared_ptr<q::relational::DataSource> source;
  };
  std::vector<Event> events;

  // Replays every write on `twin`; false on the first failure.
  bool Replay(q::core::QSystem& twin) const;
};

// ApplyFeedback endorsing tree `tree_index` of view `id`'s published
// snapshot: times the ack, then DrainRefreshes ("fresh" runs from the
// call until the drain returns). Call at quiescence, after
// LayerProbe::ReplayMira of the same tree.
bool TimedFeedback(q::core::QSystem& q, std::size_t id,
                   std::size_t tree_index, std::uint64_t key,
                   LayerProbe* probe, Samples* out, WriteLog* log);

// RegisterAndAlignSource, then DrainRefreshes, timed like feedback.
bool TimedRegister(q::core::QSystem& q,
                   std::shared_ptr<q::relational::DataSource> source,
                   std::uint64_t key, LayerProbe* probe, Samples* out,
                   WriteLog* log);

// `times` chained rounds of SaveSnapshot then OpenFromSnapshot into
// `dir`: each round saves the system the previous round restored and
// drops it before restoring, so a restore reuses the memory its
// predecessor freed instead of page-faulting fresh memory. A restore must
// report every section intact, and a view recreated on the last restored
// system must answer as the same view of `q` did. Round r is keyed
// (key, r).
void TimedSaveRestore(std::unique_ptr<q::core::QSystem> q,
                      const q::core::QSystemConfig& config,
                      const std::string& dir, int times, std::uint64_t key,
                      LayerProbe* probe, Samples* out, Report* report);

// The quiescent gates: after a final drain, a fresh QueryView of every
// view equals its published snapshot. Returns the published snapshots.
std::vector<std::shared_ptr<const q::query::ViewSnapshot>> CheckQuiescent(
    q::core::QSystem& q, Report* report);

// Compares a synchronous twin's published views with `published`.
void CheckTwin(const q::core::QSystem& twin,
               const std::vector<std::shared_ptr<const q::query::ViewSnapshot>>&
                   published,
               Report* report);

// The fixed inputs of the serve and ingest systems: the serving dataset,
// the view pairs drawn from its vocabulary, and the streaming catalog
// grown into every booted system.
struct ServingInputs {
  q::data::InterProGoDataset dataset;
  std::vector<std::vector<std::string>> pairs;
  std::uint64_t catalog_seed = 0;
  std::size_t streaming_sources = 0;
  q::data::StreamingCatalogOptions streaming;
};

ServingInputs MakeServingInputs(std::uint64_t catalog_seed, std::size_t views,
                                std::size_t streaming_sources,
                                const q::data::StreamingCatalogOptions& streaming);

// Boots a system on `in` and creates one view per pair, each keyed by its
// keywords: the timed set-up.
// nullptr, after recording the failure, when any step fails.
std::unique_ptr<q::core::QSystem> BootServing(const ServingInputs& in,
                                              const q::core::QSystemConfig& config,
                                              LayerProbe* probe, Samples* out,
                                              Report* report);

// The untimed end of a serve or ingest session: the quiescent gates, the
// chained save/restore rounds into `snapshot_dir` (keyed by `key`), and,
// when `twin_check`, a synchronous twin (the same config, refreshing in
// line) booted on `in` that replays `log` and must publish the same views.
void EndServingSession(std::unique_ptr<q::core::QSystem> q,
                       const ServingInputs& in,
                       const q::core::QSystemConfig& config,
                       const WriteLog& log, const std::string& snapshot_dir,
                       int restores, std::uint64_t key, bool twin_check,
                       LayerProbe* probe, Samples* out, Report* report);

// One session of a workload. `twin_check` asks it to also run its
// synchronous twin check.
using SessionFn = std::function<void(std::uint64_t script, bool twin_check,
                                     LayerProbe* probe, Samples* out)>;

// The traced run: session script 0 once untraced, then once traced on the
// same inputs. Emits every per-layer metric and trace.overhead_pct, the
// traced against the untraced median of `headline`, and writes the spans
// to <scratch>/trace-<workload>.jsonl. `gate_coverage` fails the run when
// the replay does not account for the CreateView time (see
// LayerProbe::Emit).
void RunTracedPair(const RunOptions& options, OpSamples Samples::*headline,
                   bool gate_coverage, const SessionFn& session,
                   Report* report);

// The timed run: passes of session scripts 0..scripts-1, each pass in an
// order drawn from the run seed, while one more pass fits in
// options.seconds. Every pass makes the same keyed calls, so a run that
// fits several passes times every call several times, at different
// moments. The first session of the run also checks its twin. Emits the
// end-to-end metrics.
void RunScriptPasses(const RunOptions& options, std::uint64_t scripts,
                     const SessionFn& session, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
