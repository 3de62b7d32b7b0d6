#include "shard/sharded_control_plane.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>  // tg-lint: allow(hot-path-map)
#include <utility>

#include "common/check.h"

namespace tailguard {

ShardedControlPlane::Shard::Shard(
    const ControlPlaneOptions& options, std::uint32_t index,
    std::uint32_t num_shards, std::vector<std::shared_ptr<CdfModel>> models)
    : estimator(std::move(models)),
      tracker(index, num_shards),
      rng(shard_substream_seed(options.seed, index)),
      placement_policy(make_placement_policy(options.placement)),
      per_class(options.classes.size()) {
  for (const ClassSpec& spec : options.classes) estimator.add_class(spec);
  if (options.admission) admission.emplace(*options.admission);
}

ShardedControlPlane::ShardedControlPlane(
    ShardingOptions sharding, ControlPlaneOptions base,
    std::vector<std::shared_ptr<CdfModel>> server_models)
    : options_(std::move(base)),
      sharding_(sharding),
      num_shards_(sharding.num_shards),
      accumulate_(sharding.sync_enabled()),
      num_servers_(server_models.size()) {
  TG_CHECK_MSG(num_shards_ >= 1, "need >= 1 shard");
  TG_CHECK_MSG(!server_models.empty(), "need >= 1 server model");
  TG_CHECK_MSG(!options_.classes.empty(), "control plane needs >= 1 class");
  shards_.reserve(num_shards_);
  for (std::uint32_t i = 0; i < num_shards_; ++i) {
    std::vector<std::shared_ptr<CdfModel>> models;
    if (i == 0) {
      // Shard 0 keeps the caller's models untouched: with one shard the
      // sharding is transparent (the parity invariant), and callers that
      // hold aliases to the models (sim ground-truth modes) keep observing
      // the live shard-0 state.
      models = server_models;
    } else {
      // Deep clones, preserving group identity: servers that shared one
      // model shared_ptr share one clone within this shard.
      // tg-lint: allow(hot-path-map) runs once per shard, at construction
      std::unordered_map<const CdfModel*, std::shared_ptr<CdfModel>> cloned;
      models.reserve(server_models.size());
      for (const std::shared_ptr<CdfModel>& m : server_models) {
        std::shared_ptr<CdfModel>& c = cloned[m.get()];
        if (c == nullptr) c = m->clone();
        models.push_back(c);
      }
    }
    shards_.emplace_back(options_, i, num_shards_, std::move(models));
    shards_.back().pending.samples.resize(num_servers_);
  }
  next_sync_ms_ = accumulate_ ? sharding_.sync_interval_ms : 0.0;
}

bool ShardedControlPlane::should_admit(std::uint32_t shard, TimeMs now) {
  Shard& s = shards_[shard];
  if (!s.admission) return true;
  // kOnOff ignores the coin; draw only when kProportional will consume it so
  // on/off admission leaves the shard's Rng stream untouched.
  const double coin =
      s.admission->options().mode == AdmissionMode::kProportional
          ? s.rng.uniform()
          : 0.0;
  return s.admission->should_admit(now, coin);
}

bool ShardedControlPlane::should_admit(std::uint32_t shard, TimeMs now,
                                       double coin) {
  Shard& s = shards_[shard];
  return !s.admission || s.admission->should_admit(now, coin);
}

void ShardedControlPlane::count_admitted(std::uint32_t shard) {
  Shard& s = shards_[shard];
  ++s.queries_admitted;
  if (s.admission) s.admission->count_admitted();
}

void ShardedControlPlane::count_rejected(std::uint32_t shard) {
  Shard& s = shards_[shard];
  ++s.queries_rejected;
  if (s.admission) s.admission->count_rejected();
}

double ShardedControlPlane::admission_miss_ratio(std::uint32_t shard,
                                                 TimeMs now) {
  Shard& s = shards_[shard];
  return s.admission ? s.admission->miss_ratio(now) : 0.0;
}

QueryPlan ShardedControlPlane::begin_query(
    std::uint32_t shard, TimeMs t0, ClassId cls,
    std::span<const ServerId> servers, std::optional<TimeMs> budget_override,
    std::optional<TimeMs> order_slo_ms) {
  Shard& s = shards_[shard];
  QueryPlan plan;
  plan.cls = cls;
  plan.fanout = static_cast<std::uint32_t>(servers.size());
  plan.t0 = t0;
  plan.budget_ms =
      budget_override ? *budget_override : s.estimator.budget(cls, servers);
  plan.tail_deadline = t0 + plan.budget_ms;
  switch (options_.policy) {
    case Policy::kTfEdf:
      plan.order_deadline = plan.tail_deadline;
      break;
    case Policy::kTEdf:
      plan.order_deadline = order_slo_ms ? t0 + *order_slo_ms
                                         : s.estimator.slo_deadline(t0, cls);
      break;
    case Policy::kFifo:
    case Policy::kPriq:
      plan.order_deadline = t0;  // unused for ordering
      break;
  }
  plan.id = s.tracker.begin_query(t0, cls, plan.fanout, plan.tail_deadline);
  return plan;
}

void ShardedControlPlane::observe_post_queuing_on(std::uint32_t shard,
                                                  ServerId server,
                                                  TimeMs post_ms) {
  Shard& s = shards_[shard];
  s.estimator.observe_post_queuing(server, post_ms);
  if (accumulate_) {
    std::vector<double>& buf = s.pending.samples[server];
    if (buf.size() < kMaxPendingPerServer) buf.push_back(post_ms);
    s.pending.any = true;
  }
}

void ShardedControlPlane::seed_profile(ServerId server,
                                       std::span<const double> sample) {
  for (Shard& s : shards_) {
    for (double x : sample) s.estimator.observe_post_queuing(server, x);
  }
}

void ShardedControlPlane::run_sync_round(TimeMs now) {
  // Every shard absorbs every other shard's pending state as it stood when
  // the round began: absorbed samples and dequeues feed the shard directly
  // and never re-enter a pending buffer, so nothing echoes back next round.
  // Past the per-server cap, each receiver takes the same evenly strided
  // subset (i * size / n is just i below the cap).
  for (std::uint32_t to = 0; to < num_shards_; ++to) {
    Shard& receiver = shards_[to];
    for (std::uint32_t from = 0; from < num_shards_; ++from) {
      const PendingDelta& p = shards_[from].pending;
      if (from == to || !p.any) continue;
      for (std::size_t s = 0; s < num_servers_; ++s) {
        const std::vector<double>& buf = p.samples[s];
        const std::size_t n = std::min(buf.size(), kMaxSyncSamplesPerServer);
        for (std::size_t i = 0; i < n; ++i)
          receiver.estimator.observe_post_queuing(static_cast<ServerId>(s),
                                                  buf[i * buf.size() / n]);
        stats_.samples_shipped += n;
      }
      absorb_remote_dequeues(to, now, p.recorded, p.missed);
    }
  }
  // clear() keeps each buffer's capacity for the next round.
  for (Shard& s : shards_) {
    PendingDelta& p = s.pending;
    for (std::vector<double>& buf : p.samples) buf.clear();
    p.recorded = 0;
    p.missed = 0;
    p.any = false;
  }
  ++stats_.rounds;
}

void ShardedControlPlane::rearm_after(TimeMs now) {
  // First interval boundary strictly after `now`; skipping empty boundaries
  // keeps long idle gaps O(1) instead of replaying every missed round.
  const TimeMs interval_ms = sharding_.sync_interval_ms;
  next_sync_ms_ = (std::floor(now / interval_ms) + 1.0) * interval_ms;
}

std::uint64_t ShardedControlPlane::queries_admitted() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.queries_admitted;
  return n;
}

std::uint64_t ShardedControlPlane::queries_rejected() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.queries_rejected;
  return n;
}

std::uint64_t ShardedControlPlane::queries_completed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.queries_completed;
  return n;
}

std::uint64_t ShardedControlPlane::queries_started() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.tracker.started();
  return n;
}

std::size_t ShardedControlPlane::in_flight() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.tracker.in_flight();
  return n;
}

std::uint64_t ShardedControlPlane::tasks_recorded() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_)
    for (const ClassAccounting& a : s.per_class) n += a.tasks_recorded;
  return n;
}

std::uint64_t ShardedControlPlane::tasks_missed() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_)
    for (const ClassAccounting& a : s.per_class) n += a.tasks_missed;
  return n;
}

double ShardedControlPlane::task_miss_ratio() const {
  const std::uint64_t total = tasks_recorded();
  return total == 0 ? 0.0
                    : static_cast<double>(tasks_missed()) /
                          static_cast<double>(total);
}

PlacementStats ShardedControlPlane::placement_stats() const {
  PlacementStats sum;
  for (const Shard& s : shards_) {
    sum.decisions += s.placement_stats.decisions;
    sum.candidates_considered += s.placement_stats.candidates_considered;
  }
  return sum;
}

ClassAccounting ShardedControlPlane::class_accounting(ClassId cls) const {
  TG_CHECK_MSG(cls < options_.classes.size(), "class id out of range");
  ClassAccounting sum;
  for (const Shard& s : shards_) {
    const ClassAccounting& a = s.per_class[cls];
    sum.queries_completed += a.queries_completed;
    sum.tasks_recorded += a.tasks_recorded;
    sum.tasks_missed += a.tasks_missed;
  }
  return sum;
}

}  // namespace tailguard
