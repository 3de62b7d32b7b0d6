#include "shard/query_front_door.h"

#include <utility>

namespace tailguard {

QueryFrontDoor::QueryFrontDoor(
    ShardingOptions sharding, ControlPlaneOptions base,
    std::vector<std::shared_ptr<CdfModel>> server_models, Observer observer)
    : control_(sharding, std::move(base), server_models),
      observer_(std::move(observer)),
      num_servers_(server_models.size()) {
  // Pending ids follow the tracker's: shard i of N issues i, i + N, ...
  const std::uint32_t n = control_.num_shards();
  lanes_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i)
    lanes_[i].pending = SlabMap<Pending>(i, n);
}

std::vector<std::shared_ptr<CdfModel>> QueryFrontDoor::streaming_models(
    const StreamingCdfModel::Options& options, std::size_t num_servers) {
  std::vector<std::shared_ptr<CdfModel>> models;
  for (std::size_t i = 0; i < num_servers; ++i)
    models.push_back(std::make_shared<StreamingCdfModel>(options));
  return models;
}

std::span<const ServerId> QueryFrontDoor::admit_then_place(
    std::uint32_t shard, TimeMs now, std::size_t untargeted) {
  // Admission (§III.C) comes before any placement work or Rng draw.
  if (!control_.should_admit(shard, now)) {
    control_.count_rejected(shard);
    return {};
  }
  control_.count_admitted(shard);

  Lane& lane = lanes_[shard];
  if (untargeted > 0 && !lane.view.empty()) {
    control_.place(shard, lane.view, untargeted, lane.picks);
    auto pick = lane.picks.begin();
    for (ServerId& server : lane.placement)
      if (server == kNoServer) server = *pick++;
  }
  if (observer_) observer_(lane.placement);
  return lane.placement;
}

QueryFrontDoor::Begun QueryFrontDoor::begin(
    std::uint32_t shard, TimeMs t0, ClassId cls,
    std::span<const ServerId> servers, std::optional<TimeMs> budget_override) {
  Begun begun;
  begun.plan = control_.begin_query(shard, t0, cls, servers, budget_override);
  SlabMap<Pending>& pending = lanes_[shard].pending;
  pending.drop_dead_prefix();
  Pending& p = pending.emplace(begun.plan.id);
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
  SlabMap<Pending>& pending = lanes_[control_.shard_of(query)].pending;
  Pending* p = pending.find(query);
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
  pending.erase(query);
  return done;
}

std::future<QueryResult> QueryFrontDoor::ready(const QueryResult& result) {
  std::promise<QueryResult> promise;
  promise.set_value(result);
  return promise.get_future();
}

}  // namespace tailguard
