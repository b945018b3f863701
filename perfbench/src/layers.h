#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer measurement from outside the library. The traced run replays
// each user-facing operation layer by layer through the modules' public
// entry points, inside spans, and reads the library's public stats
// structs as exact counts. Replays run while the system is quiescent and
// never change its state (weights are copied, decoded state discarded).

#include <cstddef>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "common.h"
#include "core/async_refresh.h"
#include "core/q_system.h"
#include "core/refresh_engine.h"
#include "trace.h"

namespace perfbench {

struct CoreCounters {
  q::core::RefreshEngineStats refresh;
  q::core::AsyncRefreshStats async;

  static CoreCounters Read(const q::core::QSystem& q);
};

// The counters the core.* metrics are made of, summed over operations.
struct CoreDelta {
  double searches = 0, irrelevant_skips = 0, relevance_checks = 0;
  double delta_recosts = 0, full_recosts = 0, edges_repriced = 0;
  double sp_retained = 0, sp_dropped = 0, snapshots_built = 0;
  double repairs_run = 0, structural_skips = 0, structural_rebuilds = 0;

  void Add(const CoreCounters& before, const CoreCounters& after);
};

class LayerProbe {
 public:
  explicit LayerProbe(Tracer* tracer) : tracer_(tracer) {}

  Tracer* tracer() { return tracer_; }
  bool enabled() const { return tracer_->enabled(); }

  // Replays the CreateView pipeline of view `id`: query-graph build, CSR
  // build, a sequential exact top-k (cold, then warm on the same engine),
  // the top-k as the system runs it, a sharded top-k, compile/execute/
  // union, and the certificate's anchor ball. Returns false when the
  // replayed tree costs differ from the view's published trees.
  bool ReplayView(q::core::QSystem& q, std::size_t id, std::string* why);
  // KeywordMatchFingerprint of every view against the live text index
  // (what the structural gate recomputes on each registration).
  void ReplayKeywordMatch(const q::core::QSystem& q);
  // MiraLearner::Update on a copy of the weights, as ApplyFeedback runs it
  // when endorsing tree `tree_index` of view `id`. No-op when untraced.
  void ReplayMira(const q::core::QSystem& q, std::size_t id,
                  std::size_t tree_index);
  // ViewBasedAligner::Align of `source` against every view with every
  // enabled matcher, as RegisterAndAlignSource runs it.
  void ReplayAlign(q::core::QSystem& q,
                   const q::relational::DataSource& source);
  // persist::Encode* of the durable state, then Decode* into fresh objects.
  void ReplayPersist(const q::core::QSystem& q);

  void AddCreateView(double ms, double heap_growth_mb) {
    create_view_ms_ += ms;
    heap_per_view_.push_back(heap_growth_mb);
  }
  void AddFeedback(const CoreCounters& before, const CoreCounters& after);
  void AddRegister(const CoreCounters& before, const CoreCounters& after);
  // Alignment work of one registration, as RegisterAndAlignSource
  // returned it.
  void AddAlignerStats(const q::align::AlignerStats& stats);

  // Every per-layer metric, in the order BENCHMARK.json lists them. With
  // `gate_coverage`, a CreateView coverage outside [0.9, 1.5] is recorded
  // as a divergence.
  void Emit(bool gate_coverage, Report* report) const;

 private:
  Tracer* tracer_;
  double create_view_ms_ = 0.0;
  std::vector<double> heap_per_view_;
  std::size_t searches_ = 0;
  std::size_t sp_trees_built_ = 0;
  std::size_t sp_lookups_ = 0;
  std::size_t sp_hits_ = 0;
  std::size_t sp_local_lookups_ = 0;
  std::size_t sp_local_hits_ = 0;
  std::size_t masked_bypasses_ = 0;
  std::size_t truncated_ = 0;
  std::vector<double> graph_nodes_;
  std::vector<double> features_touched_;
  std::vector<double> snapshot_bytes_;
  // Feedback and registration deltas of the refresh and async stats.
  std::size_t feedbacks_ = 0;
  std::size_t registers_ = 0;
  CoreDelta fb_;
  CoreDelta reg_;
  std::size_t attribute_comparisons_ = 0;
  std::size_t matcher_calls_ = 0;
  std::size_t aligned_sources_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
