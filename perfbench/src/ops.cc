#include "ops.h"

#include <algorithm>
#include <cstdio>

#include "persist/snapshot.h"
#include "util/random.h"

namespace perfbench {

std::optional<std::size_t> TimedCreateView(
    q::core::QSystem& q, const std::vector<std::string>& keywords,
    std::uint64_t key, LayerProbe* probe, Samples* out, Report* report) {
  probe->tracer()->NextOp();
  const double heap_before = HeapInUseMb();
  const auto start = Clock::now();
  q::util::Result<std::size_t> id = [&] {
    ScopedSpan span(probe->tracer(), "op.create_view");
    return q.CreateView(keywords);
  }();
  const double ms = MsSince(start);
  if (!id.ok() || q.view(*id).trees().empty()) {
    out->create.Fail();
    return std::nullopt;
  }
  out->create.Ok(ms, key);
  if (probe->enabled()) {
    probe->AddCreateView(ms, HeapInUseMb() - heap_before);
    std::string why;
    if (!probe->ReplayView(q, *id, &why)) report->Diverged(why);
  }
  return *id;
}

void TimedQuery(q::core::QSystem& q, std::size_t id, std::uint64_t key,
                LayerProbe* probe, Samples* out, Report* report) {
  probe->tracer()->NextOp();
  const auto start = Clock::now();
  q::util::Result<q::query::ViewSnapshot> got = [&] {
    ScopedSpan span(probe->tracer(), "op.query_view");
    return q.QueryView(id);
  }();
  const double ms = MsSince(start);
  if (!got.ok() || got->trees.empty()) {
    out->query.Fail();
    return;
  }
  out->query.Ok(ms, key);
  out->AddQueryWindow(ms, key, 1);
  std::string why;
  if (!SameViewState(*got, *q.ReadView(id).state, true, &why)) {
    report->Diverged("QueryView of view " + std::to_string(id) +
                     " differs from its published snapshot: " + why);
  }
}

bool WriteLog::Replay(q::core::QSystem& twin) const {
  for (const Event& event : events) {
    if (event.is_register) {
      if (!twin.RegisterAndAlignSource(event.source).ok()) return false;
      continue;
    }
    const auto state = twin.ReadView(event.view).state;
    if (event.tree_index >= state->trees.size() ||
        !twin.ApplyFeedback(event.view, state->trees[event.tree_index]).ok()) {
      return false;
    }
  }
  return true;
}

bool TimedFeedback(q::core::QSystem& q, std::size_t id,
                   std::size_t tree_index, std::uint64_t key,
                   LayerProbe* probe, Samples* out, WriteLog* log) {
  const auto state = q.ReadView(id).state;
  if (tree_index >= state->trees.size()) {
    out->fb_ack.Fail();
    out->fb_fresh.Fail();
    return false;
  }
  const q::steiner::SteinerTree& endorsed = state->trees[tree_index];
  const CoreCounters before = CoreCounters::Read(q);
  probe->tracer()->NextOp();
  const auto start = Clock::now();
  q::util::Status acked = [&] {
    ScopedSpan span(probe->tracer(), "op.feedback_ack");
    return q.ApplyFeedback(id, endorsed);
  }();
  const double ack_ms = MsSince(start);
  q::util::Status drained = [&] {
    ScopedSpan span(probe->tracer(), "core.drain");
    return q.DrainRefreshes();
  }();
  const double fresh_ms = MsSince(start);
  if (!acked.ok() || !drained.ok()) {
    out->fb_ack.Fail();
    out->fb_fresh.Fail();
    return false;
  }
  out->fb_ack.Ok(ack_ms, key);
  out->fb_fresh.Ok(fresh_ms, key);
  probe->AddFeedback(before, CoreCounters::Read(q));
  WriteLog::Event event;
  event.view = id;
  event.tree_index = tree_index;
  log->events.push_back(std::move(event));
  return true;
}

bool TimedRegister(q::core::QSystem& q,
                   std::shared_ptr<q::relational::DataSource> source,
                   std::uint64_t key, LayerProbe* probe, Samples* out,
                   WriteLog* log) {
  if (probe->enabled()) probe->ReplayAlign(q, *source);
  const CoreCounters before = CoreCounters::Read(q);
  probe->tracer()->NextOp();
  const auto start = Clock::now();
  auto acked = [&] {
    ScopedSpan span(probe->tracer(), "op.register_ack");
    return q.RegisterAndAlignSource(source);
  }();
  const double ack_ms = MsSince(start);
  q::util::Status drained = [&] {
    ScopedSpan span(probe->tracer(), "core.drain");
    return q.DrainRefreshes();
  }();
  const double fresh_ms = MsSince(start);
  if (!acked.ok() || !drained.ok()) {
    out->reg_ack.Fail();
    out->reg_fresh.Fail();
    return false;
  }
  out->reg_ack.Ok(ack_ms, key);
  out->reg_fresh.Ok(fresh_ms, key);
  probe->AddRegister(before, CoreCounters::Read(q));
  probe->AddAlignerStats(*acked);
  if (probe->enabled()) probe->ReplayKeywordMatch(q);
  WriteLog::Event event;
  event.is_register = true;
  event.source = std::move(source);
  log->events.push_back(std::move(event));
  return true;
}

void TimedSaveRestore(std::unique_ptr<q::core::QSystem> q,
                      const q::core::QSystemConfig& config,
                      const std::string& dir, int times, std::uint64_t key,
                      LayerProbe* probe, Samples* out, Report* report) {
  if (q->num_views() == 0) return;
  if (probe->enabled()) probe->ReplayPersist(*q);
  // The view checked is fixed by the session's keyword set, not by its
  // order, so the work does not depend on the run seed.
  std::size_t check = 0;
  for (std::size_t v = 1; v < q->num_views(); ++v) {
    if (q->view(v).keywords() < q->view(check).keywords()) check = v;
  }
  const std::vector<std::string> keywords = q->view(check).keywords();
  const auto expected = q->ReadView(check).state;
  for (int k = 0; k < times; ++k) {
    const std::uint64_t round = OpKey({key, static_cast<std::uint64_t>(k)});
    probe->tracer()->NextOp();
    auto start = Clock::now();
    q::util::Status saved = [&] {
      ScopedSpan span(probe->tracer(), "op.save");
      return q->SaveSnapshot(dir);
    }();
    const double save_ms = MsSince(start);
    if (!saved.ok()) {
      out->save.Fail();
      return;
    }
    out->save.Ok(save_ms, round);
    q.reset();
    q::persist::SnapshotLoadReport load;
    start = Clock::now();
    auto restored = [&] {
      ScopedSpan span(probe->tracer(), "op.restore");
      return q::core::QSystem::OpenFromSnapshot(dir, config, nullptr, &load);
    }();
    const double restore_ms = MsSince(start);
    if (!restored.ok() || !load.complete()) {
      out->restore.Fail();
      return;
    }
    out->restore.Ok(restore_ms, round);
    q = std::move(restored).value();
  }
  auto again = q->CreateView(keywords);
  std::string why;
  if (!again.ok()) {
    report->Diverged("CreateView after OpenFromSnapshot failed: " +
                     again.status().ToString());
  } else if (!SameViewState(*q->ReadView(*again).state, *expected, false,
                            &why)) {
    report->Diverged("view recreated after OpenFromSnapshot differs: " + why);
  }
}

std::vector<std::shared_ptr<const q::query::ViewSnapshot>> CheckQuiescent(
    q::core::QSystem& q, Report* report) {
  if (!q.DrainRefreshes().ok()) report->Diverged("final drain failed");
  std::vector<std::shared_ptr<const q::query::ViewSnapshot>> published;
  for (std::size_t id = 0; id < q.num_views(); ++id) {
    published.push_back(q.ReadView(id).state);
    auto fresh = q.QueryView(id);
    std::string why;
    if (!fresh.ok()) {
      report->Diverged("quiescent QueryView failed");
    } else if (!SameViewState(*fresh, *published.back(), true, &why)) {
      report->Diverged("quiescent QueryView of view " + std::to_string(id) +
                       " differs from its published snapshot: " + why);
    }
  }
  return published;
}

void CheckTwin(const q::core::QSystem& twin,
               const std::vector<std::shared_ptr<const q::query::ViewSnapshot>>&
                   published,
               Report* report) {
  if (twin.num_views() != published.size()) {
    report->Diverged("synchronous twin has a different number of views");
    return;
  }
  for (std::size_t id = 0; id < published.size(); ++id) {
    std::string why;
    if (!SameViewState(*twin.ReadView(id).state, *published[id], false,
                       &why)) {
      report->Diverged("synchronous twin differs on view " +
                       std::to_string(id) + ": " + why);
    }
  }
}

ServingInputs MakeServingInputs(
    std::uint64_t catalog_seed, std::size_t views,
    std::size_t streaming_sources,
    const q::data::StreamingCatalogOptions& streaming) {
  ServingInputs in;
  in.dataset = q::data::BuildInterProGo(
      ServingDatasetConfig(DeriveSeed(catalog_seed, 1)));
  Rng fixed(DeriveSeed(catalog_seed, 4));
  in.pairs = DrawPairs(VocabularyPairs(in.dataset), views, &fixed);
  in.catalog_seed = catalog_seed;
  in.streaming_sources = streaming_sources;
  in.streaming = streaming;
  return in;
}

std::unique_ptr<q::core::QSystem> BootServing(
    const ServingInputs& in, const q::core::QSystemConfig& config,
    LayerProbe* probe, Samples* out, Report* report) {
  const auto start = Clock::now();
  auto q = std::make_unique<q::core::QSystem>(config);
  q::util::Status status;
  for (const auto& src : in.dataset.catalog.sources()) {
    if (status.ok()) status = q->RegisterSource(src);
  }
  if (status.ok()) status = q->RunInitialAlignment();
  q::util::Rng grow(DeriveSeed(in.catalog_seed, 3));
  if (status.ok()) {
    status = q::data::BuildStreamingCatalog(
        in.streaming_sources, in.streaming, &grow, nullptr, &q->cost_model(),
        &q->mutable_search_graph());
  }
  for (const auto& pair : in.pairs) {
    if (status.ok() &&
        !TimedCreateView(*q, pair, OpKey(pair), probe, out, report)) {
      status = q::util::Status::NotFound("a view has no answer");
    }
  }
  if (!status.ok()) {
    out->setup.Fail();
    report->Diverged("boot failed: " + status.ToString());
    return nullptr;
  }
  out->setup.Ok(MsSince(start), 0);
  return q;
}

void EndServingSession(std::unique_ptr<q::core::QSystem> q,
                       const ServingInputs& in,
                       const q::core::QSystemConfig& config,
                       const WriteLog& log, const std::string& snapshot_dir,
                       int restores, std::uint64_t key, bool twin_check,
                       LayerProbe* probe, Samples* out, Report* report) {
  const auto published = CheckQuiescent(*q, report);
  TimedSaveRestore(std::move(q), config, snapshot_dir, restores, key, probe,
                   out, report);
  if (!twin_check) return;
  q::core::QSystemConfig sync = config;
  sync.async_refresh = false;
  sync.async_repair_threads = 0;
  Tracer off(false);
  LayerProbe quiet(&off);
  Samples ignored;
  std::unique_ptr<q::core::QSystem> twin =
      BootServing(in, sync, &quiet, &ignored, report);
  if (twin == nullptr) return;
  if (!log.Replay(*twin)) {
    report->Diverged("synchronous twin replay failed");
    return;
  }
  CheckTwin(*twin, published, report);
}

void RunTracedPair(const RunOptions& options, OpSamples Samples::*headline,
                   bool gate_coverage, const SessionFn& session,
                   Report* report) {
  Tracer off(false);
  LayerProbe untraced(&off);
  Tracer tracer(true);
  LayerProbe probe(&tracer);
  Samples plain, traced;
  session(0, false, &untraced, &plain);
  session(0, true, &probe, &traced);
  traced.CountInto(report);
  probe.Emit(gate_coverage, report);
  const double base = Percentile((plain.*headline).ms, 0.5);
  report->Add("trace.overhead_pct",
              base > 0.0 ? 100.0 * (Percentile((traced.*headline).ms, 0.5) /
                                        base -
                                    1.0)
                         : 0.0,
              "%");
  tracer.WriteJsonl(options.scratch + "/trace-" + options.workload +
                    ".jsonl");
}

void RunScriptPasses(const RunOptions& options, std::uint64_t scripts,
                     const SessionFn& session, Report* report) {
  Tracer off(false);
  LayerProbe untraced(&off);
  Samples all;
  Rng order(DeriveSeed(options.seed, 6));
  bool first = true;
  const auto start = Clock::now();
  const std::uint64_t passes =
      RunPasses(options.seconds, [&](std::uint64_t) {
        for (std::size_t script : Permutation(scripts, &order)) {
          Samples one;
          session(script, first, &untraced, &one);
          first = false;
          all.Merge(one);
        }
      });
  std::fprintf(stderr, "perfbench: %s ran %llu passes in %.1f s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(passes), MsSince(start) / 1e3);
  all.CountInto(report);
  all.EmitEndToEnd(report);
}

}  // namespace perfbench
