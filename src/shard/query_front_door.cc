#include "shard/query_front_door.h"

#include <utility>

namespace tailguard {

QueryFrontDoor::QueryFrontDoor(
    ControlPlaneOptions base,
    std::vector<std::shared_ptr<CdfModel>> server_models, Observer observer)
    : control_(ShardingOptions{}, std::move(base), server_models),
      observer_(std::move(observer)),
      num_servers_(server_models.size()) {}

std::vector<std::shared_ptr<CdfModel>> QueryFrontDoor::streaming_models(
    const StreamingCdfModel::Options& options, std::size_t num_servers) {
  std::vector<std::shared_ptr<CdfModel>> models;
  for (std::size_t i = 0; i < num_servers; ++i)
    models.push_back(std::make_shared<StreamingCdfModel>(options));
  return models;
}

std::span<const ServerId> QueryFrontDoor::admit_then_place(
    TimeMs now, std::size_t untargeted) {
  // Admission (§III.C) comes before any placement work or Rng draw.
  if (!control_.should_admit(/*shard=*/0, now)) {
    control_.count_rejected(/*shard=*/0);
    return {};
  }
  control_.count_admitted(/*shard=*/0);

  if (untargeted > 0 && !view_.empty()) {
    control_.place(/*shard=*/0, view_, untargeted, picks_);
    auto pick = picks_.begin();
    for (ServerId& server : placement_)
      if (server == kNoServer) server = *pick++;
  }
  if (observer_) observer_(placement_);
  return placement_;
}

QueryFrontDoor::Begun QueryFrontDoor::begin(
    TimeMs t0, ClassId cls, std::span<const ServerId> servers,
    std::optional<TimeMs> budget_override) {
  Begun begun;
  begun.plan =
      control_.begin_query(/*shard=*/0, t0, cls, servers, budget_override);
  pending_.drop_dead_prefix();
  Pending& p = pending_.emplace(begun.plan.id);
  begun.future = p.promise.emplace().get_future();
  p.result = {.id = begun.plan.id,
              .cls = cls,
              .fanout = begun.plan.fanout,
              .deadline_budget_ms = begun.plan.budget_ms};
  return begun;
}

std::optional<FinishedQuery> QueryFrontDoor::finish_task(
    QueryId query, TimeMs dequeue_ms, TimeMs done_ms, bool missed,
    bool failed) {
  Pending* p = pending_.find(query);
  TG_CHECK_MSG(p != nullptr, "no pending entry for query " << query);
  if (failed) {
    ++p->result.tasks_failed;
  } else {
    control_.record_task_dequeue(query, dequeue_ms, p->result.cls, missed);
    if (missed) ++p->result.tasks_missed_deadline;
  }
  QueryState final_state;
  if (!control_.complete_task(query, &final_state)) return std::nullopt;
  p->result.latency_ms = done_ms - final_state.t0;
  FinishedQuery done{std::move(*p->promise), p->result};
  pending_.erase(query);
  return done;
}

std::future<QueryResult> QueryFrontDoor::ready(const QueryResult& result) {
  std::promise<QueryResult> promise;
  promise.set_value(result);
  return promise.get_future();
}

}  // namespace tailguard
