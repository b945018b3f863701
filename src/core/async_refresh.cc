#include "core/async_refresh.h"

#include <algorithm>
#include <utility>

namespace q::core {

AsyncRefreshScheduler::AsyncRefreshScheduler(
    RefreshEngine* engine, util::ThreadPool* pool, int dedicated_threads,
    const graph::SearchGraph* base, const relational::Catalog* catalog,
    const text::TextIndex* index, graph::CostModel* model,
    const graph::WeightVector* weights, util::SharedMutex* serve_gate)
    : engine_(engine),
      owned_pool_(pool == nullptr || dedicated_threads > 0
                      ? std::make_unique<util::ThreadPool>(
                            std::max(1, dedicated_threads))
                      : nullptr),
      pool_(owned_pool_ != nullptr ? owned_pool_.get() : pool),
      base_(base),
      catalog_(catalog),
      index_(index),
      model_(model),
      weights_(weights),
      serve_gate_(serve_gate),
      queue_(pool_),
      epoch_weight_revision_(weights->revision()) {}

AsyncRefreshScheduler::~AsyncRefreshScheduler() { queue_.Drain(); }

void AsyncRefreshScheduler::TrackView(std::size_t slot,
                                      query::TopKView* view) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.size() <= slot) {
    views_.resize(slot + 1, nullptr);
    validated_.resize(slot + 1, 0);
  }
  views_[slot] = view;
  validated_[slot] = epoch_;
}

void AsyncRefreshScheduler::NotifyBaseChanged() {
  std::vector<std::size_t> repairs;
  std::vector<std::size_t> serial;
  std::vector<std::size_t> prepares;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.feedback_rounds;
    ++epoch_;
    epoch_weight_revision_ = weights_->revision();
    engine_->BeginAsyncRound(*base_, *weights_);
    for (std::size_t slot = 0; slot < views_.size(); ++slot) {
      if (queue_.Busy(slot)) {
        // A repair is in flight or parked: its engine slot is not safe to
        // classify from here, and it may have started from an older
        // frozen epoch. Queue another pass — the queue coalesces it away
        // if the pending one has not started yet.
        repairs.push_back(slot);
        continue;
      }
      switch (engine_->ClassifyViewForAsync(slot, *base_, *index_,
                                            *weights_)) {
        case AsyncViewClass::kUpToDate:
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kValidatedWithoutSearch:
          // Delta-proven no-op or relevance-gated: the published output
          // is provably what a fresh search would return, so the view is
          // fresh at this epoch without running one.
          ++stats_.validations_without_search;
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kSkippedIrrelevant:
          // Structural certificate proved a pending registration cannot
          // affect this view (possible here when feedback lands while a
          // gated registration's journals are still unreplayed).
          ++stats_.validations_without_search;
          ++stats_.structural_skips;
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kRepair:
          repairs.push_back(slot);
          break;
        case AsyncViewClass::kStructuralRepair:
          // A registration this view's certificate skipped earlier is
          // no longer provably irrelevant (this feedback moved the
          // weights it was proven under): rebase below, search async.
          prepares.push_back(slot);
          break;
        case AsyncViewClass::kSerialOnly:
          serial.push_back(slot);
          break;
      }
    }
    if (!repairs.empty() || !prepares.empty()) {
      // Freeze the weight vector for this epoch's repairs: the copy
      // equals the live vector (values and journal) right now and never
      // changes, so repairs can read it while the feedback thread keeps
      // applying MIRA updates to the live one. Skipped when every view
      // validated in place — the copy is O(features + journal) and would
      // sit on the ack's critical path for nothing. (Busy views are in
      // `repairs`, so any task that will re-run gets a fresh copy.)
      frozen_weights_ =
          std::make_shared<const graph::WeightVector>(*weights_);
    }
  }
  cv_.notify_all();

  if (!serial.empty() || !prepares.empty()) {
    // The synchronous searches of this round use the live weights; the
    // prepared slots' searches join this round's repairs against the
    // weights frozen above (the live vector cannot move while our caller
    // holds its feedback lock).
    RunSynchronousRepairs(serial, prepares, &repairs);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t slot : repairs) {
      ++stats_.repairs_scheduled;
      queue_.Submit(slot, [this, slot] { RepairOne(slot); });
    }
  }
}

util::Status AsyncRefreshScheduler::NotifyStructuralChange() {
  std::vector<std::size_t> repairs;
  std::vector<std::size_t> serial;
  std::vector<std::size_t> prepares;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.structural_rounds;
    ++epoch_;
    epoch_weight_revision_ = weights_->revision();
    engine_->BeginAsyncRound(*base_, *weights_);
    for (std::size_t slot = 0; slot < views_.size(); ++slot) {
      if (queue_.Busy(slot)) {
        // The caller quiesced before mutating the base, so this should
        // not happen; routed to the serial path for safety (a busy
        // slot's engine state cannot be classified from here).
        serial.push_back(slot);
        continue;
      }
      switch (engine_->ClassifyViewForAsync(slot, *base_, *index_,
                                            *weights_)) {
        case AsyncViewClass::kUpToDate:
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kValidatedWithoutSearch:
          ++stats_.validations_without_search;
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kSkippedIrrelevant:
          // The whole point of the structural gate: this view's serving
          // state is untouched by the registration — no rebuild, no
          // search, not even a snapshot copy.
          ++stats_.validations_without_search;
          ++stats_.structural_skips;
          validated_[slot] = epoch_;
          break;
        case AsyncViewClass::kRepair:
          // Not produced by a graph-moved slot today (the structural
          // branch returns skip or serial), but handled like any repair
          // so a future classification refinement cannot strand a view.
          repairs.push_back(slot);
          break;
        case AsyncViewClass::kStructuralRepair:
          prepares.push_back(slot);
          break;
        case AsyncViewClass::kSerialOnly:
          // First touch or weight-dependent topology: only a full serial
          // repair can re-expand the query graph (the async repair never
          // rebuilds), so the search runs inside the ack.
          serial.push_back(slot);
          break;
      }
    }
  }
  cv_.notify_all();

  util::Status status = util::Status::OK();
  std::vector<std::size_t> searches;
  if (!serial.empty() || !prepares.empty()) {
    // The searches of prepared slots are NOT run here: the ordinary
    // RepairOne task finishes each in place on the keyed queue (per-slot
    // ordering serializes it against any later repair of the same view).
    status = RunSynchronousRepairs(serial, prepares, &searches);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!repairs.empty() || !searches.empty()) {
      // Freeze for the queued repairs (see NotifyBaseChanged). The
      // feedback lock is held by our caller, so the live vector cannot
      // move between the prepares above and this copy.
      frozen_weights_ =
          std::make_shared<const graph::WeightVector>(*weights_);
    }
    for (std::size_t slot : searches) {
      ++stats_.repairs_scheduled;
      queue_.Submit(slot, [this, slot] { RepairOne(slot); });
    }
    for (std::size_t slot : repairs) {
      ++stats_.repairs_scheduled;
      queue_.Submit(slot, [this, slot] { RepairOne(slot); });
    }
  }
  cv_.notify_all();
  return status;
}

util::Status AsyncRefreshScheduler::RunSynchronousRepairs(
    const std::vector<std::size_t>& serial,
    const std::vector<std::size_t>& prepares,
    std::vector<std::size_t>* searches) {
  // Rebuilds and rebases mutate the shared feature space and the cached
  // query graph, which concurrent repairs may be reading: quiesce first.
  // The owner's feedback lock keeps new notifications out while we run.
  // Concurrent QueryView readers are excluded by the serving gate — a
  // rebuild replaces the slot's engine and query graph, which a
  // gate-free reader could be mid-search on. (Taken after the drain:
  // repair tasks never touch the gate, so the drain cannot deadlock
  // against it.)
  queue_.Drain();
  std::unique_lock<util::SharedMutex> serve_lock;
  if (serve_gate_ != nullptr) {
    serve_lock = std::unique_lock<util::SharedMutex>(*serve_gate_);
  }
  util::Status first_error = util::Status::OK();
  auto note_error = [&](const util::Status& status) {
    if (repair_error_.ok()) repair_error_ = status;
    if (first_error.ok()) first_error = status;
  };
  for (std::size_t slot : serial) {
    util::Status status = engine_->RefreshView(slot, *base_, *catalog_,
                                               *index_, model_, *weights_);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.serial_repairs;
    if (status.ok()) {
      validated_[slot] = epoch_;
    } else {
      note_error(status);
    }
  }
  for (std::size_t slot : prepares) {
    auto need_search = engine_->PrepareStructuralRepair(
        slot, *base_, *index_, model_, *weights_);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.structural_rebuilds;
    if (!need_search.ok()) {
      note_error(need_search.status());
    } else if (*need_search) {
      searches->push_back(slot);
    } else {
      validated_[slot] = epoch_;
    }
  }
  cv_.notify_all();
  return first_error;
}

void AsyncRefreshScheduler::RepairOne(std::size_t slot) {
  std::uint64_t target = 0;
  std::shared_ptr<const graph::WeightVector> frozen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repairs_run;
    // Reconcile to the *latest* epoch, not the one that queued us: the
    // frozen copy carries the full journal, so a repair that absorbed
    // two feedback updates commits both — exactly what coalescing means.
    target = epoch_;
    frozen = frozen_weights_;
  }
  util::Status status =
      engine_->RepairViewAsync(slot, *base_, *catalog_, *frozen);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      validated_[slot] = std::max(validated_[slot], target);
    } else if (repair_error_.ok()) {
      // Sticky until a SyncBarrier repairs the view synchronously (its
      // slot never committed, so the barrier retries from scratch).
      repair_error_ = status;
    }
  }
  cv_.notify_all();
}

query::ViewResult AsyncRefreshScheduler::Read(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  query::ViewResult result;
  // Untracked slots read as empty (state == nullptr), not UB.
  if (slot >= views_.size() || views_[slot] == nullptr) return result;
  result.state = views_[slot]->Snapshot();
  result.generation = validated_[slot];
  result.stale = validated_[slot] < epoch_;
  return result;
}

std::shared_ptr<const query::ViewSnapshot>
AsyncRefreshScheduler::CurrentSnapshot(std::size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= views_.size() || views_[slot] == nullptr ||
      validated_[slot] < epoch_ ||
      epoch_weight_revision_ != weights_->revision()) {
    return nullptr;
  }
  return views_[slot]->Snapshot();
}

bool AsyncRefreshScheduler::WaitFresh(std::size_t slot,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  if (slot >= views_.size() || views_[slot] == nullptr) return false;
  const std::uint64_t target = epoch_;
  cv_.wait_for(lock, timeout, [&] {
    return validated_[slot] >= target || !repair_error_.ok();
  });
  return validated_[slot] >= target;
}

util::Status AsyncRefreshScheduler::Drain() {
  queue_.Drain();
  std::lock_guard<std::mutex> lock(mu_);
  return repair_error_;
}

void AsyncRefreshScheduler::Quiesce() { queue_.Drain(); }

util::Status AsyncRefreshScheduler::SyncBarrier() {
  queue_.Drain();
  util::Status status =
      engine_->RefreshAll(*base_, *catalog_, *index_, model_, *weights_);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sync_barriers;
  ++epoch_;
  epoch_weight_revision_ = weights_->revision();
  if (status.ok()) {
    for (std::size_t slot = 0; slot < validated_.size(); ++slot) {
      validated_[slot] = epoch_;
    }
    repair_error_ = util::Status::OK();
  } else if (repair_error_.ok()) {
    // A failed barrier bumps the epoch without validating anyone, so a
    // WaitFresh waiter's predicate could never become true — record the
    // failure so waiters wake with `false` now instead of burning their
    // full deadline (and so Drain surfaces the barrier's failure exactly
    // like a failed async repair's).
    repair_error_ = status;
  }
  cv_.notify_all();
  return status;
}

std::uint64_t AsyncRefreshScheduler::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

AsyncRefreshStats AsyncRefreshScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace q::core
