#include "shard/sharded_control_plane.h"

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
      num_servers_(server_models.size()),
      router_(make_router(sharding.router)),
      bus_(sharding.num_shards) {
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
  for (PendingDelta& p : pending_) {
    p.samples.resize(num_servers_);
    p.dropped.assign(num_servers_, 0);
  }
  next_seq_.assign(num_shards_, 1);
  dedup_.resize(num_shards_);
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
    if (buf.size() < kMaxPendingPerServer) {
      buf.push_back(post_ms);
    } else {
      ++p.dropped[server];
    }
    p.any = true;
  }
}

void ShardedControlPlane::seed_profile(ServerId server,
                                       std::span<const double> sample) {
  for (const std::unique_ptr<QueryControlPlane>& plane : shards_) {
    for (double s : sample) plane->observe_post_queuing(server, s);
  }
}

ShardDelta ShardedControlPlane::collect_delta(std::uint32_t shard) {
  PendingDelta& p = pending_[shard];
  ShardDelta delta;
  delta.origin = shard;
  delta.seq = next_seq_[shard]++;
  delta.dequeues_recorded = p.recorded;
  delta.dequeues_missed = p.missed;
  const std::size_t cap = sharding_.max_sync_samples_per_server;
  for (std::size_t s = 0; s < num_servers_; ++s) {
    std::vector<double>& buf = p.samples[s];
    if (buf.empty() && p.dropped[s] == 0) continue;
    ShardDelta::ServerEntry entry;
    entry.server = static_cast<ServerId>(s);
    entry.samples_dropped = p.dropped[s];
    // Deterministic thinning to the per-server cap: an evenly-strided subset
    // of the buffer, counting what the stride lost. Samples are copied out,
    // never moved, so the pending buffer keeps its capacity for the next
    // round.
    if (cap > 0 && buf.size() > cap) {
      entry.samples_ms.reserve(cap);
      for (std::size_t i = 0; i < cap; ++i)
        entry.samples_ms.push_back(buf[i * buf.size() / cap]);
      entry.samples_dropped += buf.size() - cap;
    } else {
      entry.samples_ms.assign(buf.begin(), buf.end());
    }
    buf.clear();
    delta.servers.push_back(std::move(entry));
    p.dropped[s] = 0;
  }
  p.recorded = 0;
  p.missed = 0;
  p.any = false;
  return delta;
}

bool ShardedControlPlane::absorb_remote_delta(std::uint32_t shard,
                                              const ShardDelta& delta,
                                              TimeMs now) {
  if (!dedup_[shard].accept(delta.origin, delta.seq)) {
    ++stats_.duplicates_dropped;
    return false;
  }
  QueryControlPlane& plane = *shards_[shard];
  for (const ShardDelta::ServerEntry& entry : delta.servers) {
    // Feed the replica directly: absorbed samples must not re-enter this
    // shard's pending delta or every round would re-broadcast them.
    for (double s : entry.samples_ms) {
      plane.observe_post_queuing(entry.server, s);
    }
    stats_.samples_shipped += entry.samples_ms.size();
    stats_.samples_dropped += entry.samples_dropped;
  }
  plane.absorb_remote_dequeues(now, delta.dequeues_recorded,
                               delta.dequeues_missed);
  ++stats_.deltas_absorbed;
  return true;
}

void ShardedControlPlane::run_sync_round(TimeMs now) {
  // Collect-then-publish-then-absorb in shard order: every shard's delta
  // reflects only pre-round state, so a round is a symmetric exchange and
  // the outcome is independent of per-shard processing order.
  std::vector<ShardDelta> outbound;
  outbound.reserve(num_shards_);
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (!pending_[s].any) continue;
    outbound.push_back(collect_delta(s));
  }
  for (ShardDelta& d : outbound) {
    bus_.publish(d);
    ++stats_.deltas_published;
  }
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    for (const ShardDelta& d : bus_.drain(s)) {
      absorb_remote_delta(s, d, now);
    }
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
