#include "runtime/service.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"

namespace tailguard {

TailGuardService::TailGuardService(ServiceOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      door_(options_, options_.num_workers) {
  TG_CHECK_MSG(options_.num_workers >= 1, "need at least one worker");
  TG_CHECK_MSG(!options_.classes.empty(), "need at least one service class");

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

void TailGuardService::seed_profile(std::span<const double> samples_ms) {
  MutexLock lock(mu_);
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
  QueryFrontDoor::Begun begun;
  {
    MutexLock lock(mu_);
    std::vector<PlacementCandidate>& view = door_.candidate_view();
    for (const auto& w : workers_) view.emplace_back(w->queue_depth(), w->id());
    const std::span<const ServerId> placed =
        door_.admit_and_place(t0, tasks, &ServiceTaskSpec::worker);
    if (placed.empty())
      return QueryFrontDoor::ready(
          {.cls = cls, .fanout = fanout, .admitted = false});
    begun = door_.begin(t0, cls, placed, budget_override);
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
  return std::move(begun.future);
}

void TailGuardService::on_task_complete(ServerId worker,
                                        const RuntimeTask& task,
                                        TimeMs dequeue_ms,
                                        TimeMs complete_ms) {
  std::optional<FinishedQuery> finished;
  {
    MutexLock lock(mu_);
    ShardedControlPlane& control = door_.control();
    const bool missed = dequeue_ms > control.query_state(task.query).deadline;
    // Online updating (§III.B.2): post-queuing time = completion - dequeue.
    control.observe_post_queuing(task.query, worker, complete_ms - dequeue_ms);
    finished = door_.finish_task(task.query, dequeue_ms, complete_ms, missed,
                                 /*failed=*/false);
  }
  if (finished) finished->promise.set_value(finished->result);
}

std::uint64_t TailGuardService::completed_queries() const {
  MutexLock lock(mu_);
  return door_.control().queries_completed();
}

std::uint64_t TailGuardService::rejected_queries() const {
  MutexLock lock(mu_);
  return door_.control().queries_rejected();
}

double TailGuardService::deadline_miss_ratio() const {
  MutexLock lock(mu_);
  return door_.control().task_miss_ratio();
}

PlacementStats TailGuardService::placement_stats() const {
  MutexLock lock(mu_);
  return door_.control().placement_stats();
}

std::shared_ptr<const CdfModel> TailGuardService::worker_model(
    ServerId worker) const {
  MutexLock lock(mu_);
  // Deep-copy under the lock: handing out a reference would race with the
  // online updates the worker threads keep applying.
  return door_.control().model_of(/*shard=*/0, worker).clone();
}

}  // namespace tailguard
