#include "runtime/service.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace tailguard {

TailGuardService::TailGuardService(ServiceOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      door_({.num_shards = options_.num_handler_shards,
             .sync_interval_ms = options_.shard_sync_interval_ms,
             .router = options_.shard_router},
            options_, options_.num_workers) {
  TG_CHECK_MSG(options_.num_workers >= 1, "need at least one worker");
  TG_CHECK_MSG(!options_.classes.empty(), "need at least one service class");

  for (std::uint32_t i = 0; i < door_.control().num_shards(); ++i)
    shard_mu_.push_back(std::make_unique<Mutex>());
  next_sync_hint_.store(door_.control().next_sync_at(),
                        std::memory_order_relaxed);

  const auto clock = [this] { return now_ms(); };
  const auto on_complete = [this](ServerId worker, const RuntimeTask& task,
                                  TimeMs dequeue_ms, TimeMs complete_ms) {
    on_task_complete(worker, task, dequeue_ms, complete_ms);
  };
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i)
    workers_.push_back(std::make_unique<Worker>(
        static_cast<ServerId>(i), options_.policy, options_.classes.size(),
        clock, on_complete));
}

TailGuardService::~TailGuardService() {
  // Workers are declared last, so they are destroyed first: each drains its
  // queue and joins, firing the remaining completions while the rest of the
  // service state is still alive.
  for (auto& w : workers_) w->shutdown();
}

TimeMs TailGuardService::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::vector<std::unique_lock<Mutex>> TailGuardService::lock_all() const {
  // Index order everywhere, so lock_all never deadlocks against per-shard
  // paths (which hold at most one shard mutex).
  std::vector<std::unique_lock<Mutex>> locks;
  locks.reserve(shard_mu_.size());
  for (const auto& mu : shard_mu_) locks.emplace_back(*mu);
  return locks;
}

void TailGuardService::maybe_sync(TimeMs now) {
  ShardedControlPlane& control = door_.control();
  if (!control.sync_enabled()) return;
  if (now < next_sync_hint_.load(std::memory_order_relaxed)) return;
  auto locks = lock_all();
  // Another thread may have run the round between the hint check and the
  // locks; maybe_sync re-checks under the barrier and no-ops in that case.
  control.maybe_sync(now);
  next_sync_hint_.store(control.next_sync_at(), std::memory_order_relaxed);
}

void TailGuardService::seed_profile(std::span<const double> samples_ms) {
  auto locks = lock_all();
  for (std::size_t w = 0; w < workers_.size(); ++w)
    door_.control().seed_profile(static_cast<ServerId>(w), samples_ms);
}

std::future<QueryResult> TailGuardService::submit(
    ClassId cls, std::vector<ServiceTaskSpec> tasks,
    std::optional<TimeMs> budget_override) {
  TG_CHECK_MSG(cls < options_.classes.size(), "unknown class " << cls);
  // Untargeted tasks get distinct workers.
  TG_CHECK_MSG(std::ranges::count_if(tasks, [](const ServiceTaskSpec& t) {
                 return !t.worker;
               }) <= std::ssize(workers_),
               "query fanout exceeds worker count " << workers_.size());

  const auto fanout = static_cast<std::uint32_t>(tasks.size());
  const TimeMs t0 = now_ms();
  const std::uint32_t shard = door_.control().route(
      submit_seq_.fetch_add(1, std::memory_order_relaxed), cls);
  QueryFrontDoor::Begun begun;
  {
    MutexLock lock(*shard_mu_[shard]);
    std::vector<PlacementCandidate>& view = door_.candidate_view(shard);
    for (const auto& w : workers_) view.emplace_back(w->queue_depth(), w->id());
    const std::span<const ServerId> placed =
        door_.admit_and_place(shard, t0, tasks, &ServiceTaskSpec::worker);
    if (placed.empty())
      return QueryFrontDoor::ready(
          {.cls = cls, .fanout = fanout, .admitted = false});
    begun = door_.begin(shard, t0, cls, placed, budget_override);
    // The specs carry the placement past the lock to the sends below.
    for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].worker = placed[i];
  }

  for (ServiceTaskSpec& spec : tasks)
    workers_[*spec.worker]->submit(
        {.id = next_task_id_.fetch_add(1, std::memory_order_relaxed),
         .query = begun.plan.id,
         .cls = cls,
         .work = std::move(spec.work),
         .simulated_service_ms = spec.simulated_service_ms},
        t0, begun.plan.order_deadline);
  maybe_sync(t0);
  return std::move(begun.future);
}

void TailGuardService::on_task_complete(ServerId worker,
                                        const RuntimeTask& task,
                                        TimeMs dequeue_ms,
                                        TimeMs complete_ms) {
  ShardedControlPlane& control = door_.control();
  std::optional<FinishedQuery> finished;
  {
    MutexLock lock(*shard_mu_[control.shard_of(task.query)]);
    const bool missed = dequeue_ms > control.query_state(task.query).deadline;
    // Online updating (§III.B.2): post-queuing time = completion - dequeue.
    control.observe_post_queuing(task.query, worker, complete_ms - dequeue_ms);
    finished = door_.finish_task(task.query, dequeue_ms, complete_ms, missed,
                                 /*failed=*/false);
  }
  if (finished) finished->promise.set_value(finished->result);
  maybe_sync(complete_ms);
}

std::uint64_t TailGuardService::completed_queries() const {
  auto locks = lock_all();
  return door_.control().queries_completed();
}

std::uint64_t TailGuardService::rejected_queries() const {
  auto locks = lock_all();
  return door_.control().queries_rejected();
}

double TailGuardService::deadline_miss_ratio() const {
  auto locks = lock_all();
  return door_.control().task_miss_ratio();
}

PlacementPolicyKind TailGuardService::placement_kind() const {
  return door_.control().placement_kind();  // immutable after construction
}

PlacementStats TailGuardService::placement_stats() const {
  auto locks = lock_all();
  return door_.control().placement_stats();
}

std::shared_ptr<const CdfModel> TailGuardService::worker_model(
    ServerId worker) const {
  auto locks = lock_all();
  // Shard 0's view: with one handler shard (the default) this is the only
  // view; with several it is one shard's local+synced estimate. Deep-copy
  // under the locks: handing out a reference would race with the online
  // updates the worker threads keep applying.
  return door_.control().model_of(0, worker).clone();
}

}  // namespace tailguard
