#include "shard/sharded_control_plane.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace tailguard {

ShardedControlPlane::ShardedControlPlane(
    ShardingOptions sharding, ControlPlaneOptions base,
    std::vector<std::shared_ptr<CdfModel>> server_models)
    : sharding_(sharding),
      num_shards_(sharding.num_shards),
      accumulate_(sharding.sync_enabled()),
      num_servers_(server_models.size()) {
  TG_CHECK_MSG(num_shards_ >= 1, "need >= 1 shard");
  TG_CHECK_MSG(!server_models.empty(), "need >= 1 server model");
  shards_.reserve(num_shards_);
  for (std::uint32_t i = 0; i < num_shards_; ++i) {
    ControlPlaneOptions opts = base;
    opts.seed = shard_substream_seed(base.seed, i);
    opts.id_start = i;
    opts.id_stride = num_shards_;
    std::vector<std::shared_ptr<CdfModel>> models;
    if (i == 0) {
      // Shard 0 keeps the caller's models untouched: with one shard the
      // facade is transparent (the parity invariant), and callers that hold
      // aliases to the models (sim ground-truth modes) keep observing the
      // live shard-0 state.
      models = server_models;
    } else {
      // Deep clones, preserving group identity: servers that shared one
      // model shared_ptr share one clone within this shard.
      std::unordered_map<const CdfModel*, std::shared_ptr<CdfModel>> cloned;
      models.reserve(server_models.size());
      for (const std::shared_ptr<CdfModel>& m : server_models) {
        std::shared_ptr<CdfModel>& c = cloned[m.get()];
        if (c == nullptr) c = m->clone();
        models.push_back(c);
      }
    }
    shards_.push_back(
        std::make_unique<QueryControlPlane>(std::move(opts), std::move(models)));
  }
  pending_.resize(num_shards_);
  for (PendingDelta& p : pending_) p.samples.resize(num_servers_);
  next_sync_ms_ = accumulate_ ? sharding_.sync_interval_ms : 0.0;
}

void ShardedControlPlane::accumulate_dequeue(std::uint32_t shard,
                                             bool missed) {
  PendingDelta& p = pending_[shard];
  ++p.recorded;
  if (missed) ++p.missed;
  p.any = true;
}

void ShardedControlPlane::observe_post_queuing_on(std::uint32_t shard,
                                                  ServerId server,
                                                  TimeMs post_ms) {
  shards_[shard]->observe_post_queuing(server, post_ms);
  if (accumulate_) {
    PendingDelta& p = pending_[shard];
    std::vector<double>& buf = p.samples[server];
    if (buf.size() < kMaxPendingPerServer) buf.push_back(post_ms);
    p.any = true;
  }
}

void ShardedControlPlane::seed_profile(ServerId server,
                                       std::span<const double> sample) {
  for (const std::unique_ptr<QueryControlPlane>& plane : shards_) {
    for (double s : sample) plane->observe_post_queuing(server, s);
  }
}

void ShardedControlPlane::run_sync_round(TimeMs now) {
  // Every shard absorbs every other shard's pending state as it stood when
  // the round began: absorbed samples and dequeues feed the replica directly
  // and never re-enter a pending buffer, so nothing echoes back next round.
  // Past the per-server cap, each receiver takes the same evenly strided
  // subset (i * size / n is just i below the cap).
  for (std::uint32_t to = 0; to < num_shards_; ++to) {
    QueryControlPlane& plane = *shards_[to];
    for (std::uint32_t from = 0; from < num_shards_; ++from) {
      const PendingDelta& p = pending_[from];
      if (from == to || !p.any) continue;
      for (std::size_t s = 0; s < num_servers_; ++s) {
        const std::vector<double>& buf = p.samples[s];
        const std::size_t n = std::min(buf.size(), kMaxSyncSamplesPerServer);
        for (std::size_t i = 0; i < n; ++i)
          plane.observe_post_queuing(static_cast<ServerId>(s),
                                     buf[i * buf.size() / n]);
        stats_.samples_shipped += n;
      }
      plane.absorb_remote_dequeues(now, p.recorded, p.missed);
    }
  }
  // clear() keeps each buffer's capacity for the next round.
  for (PendingDelta& p : pending_) {
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
  for (const auto& s : shards_) n += s->queries_admitted();
  return n;
}

std::uint64_t ShardedControlPlane::queries_rejected() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->queries_rejected();
  return n;
}

std::uint64_t ShardedControlPlane::queries_completed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->queries_completed();
  return n;
}

std::uint64_t ShardedControlPlane::queries_started() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->queries_started();
  return n;
}

std::size_t ShardedControlPlane::in_flight() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->in_flight();
  return n;
}

std::uint64_t ShardedControlPlane::tasks_recorded() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->tasks_recorded();
  return n;
}

std::uint64_t ShardedControlPlane::tasks_missed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->tasks_missed();
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
  for (const auto& s : shards_) {
    const PlacementStats& p = s->placement_stats();
    sum.decisions += p.decisions;
    sum.candidates_considered += p.candidates_considered;
  }
  return sum;
}

ClassAccounting ShardedControlPlane::class_accounting(ClassId cls) const {
  ClassAccounting sum;
  for (const auto& s : shards_) {
    const ClassAccounting& a = s->class_accounting(cls);
    sum.queries_completed += a.queries_completed;
    sum.tasks_recorded += a.tasks_recorded;
    sum.tasks_missed += a.tasks_missed;
  }
  return sum;
}

}  // namespace tailguard
