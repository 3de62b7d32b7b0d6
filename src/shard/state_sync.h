// Delta-sync bus between query-handler shards.
//
// Each shard accumulates, since its previous sync round, a ShardDelta of
//   * per-server post-queuing-time samples (feed the streaming CDF models),
//   * admission miss-window increments (dequeues recorded / missed).
// Sample and dequeue fields are *increments*, never snapshots: a receiver
// merges them by applying them once, so replaying the stream cannot
// double-count. Task-server daemons send the same struct to dispatchers with
// one more field per server, a last-writer-wins queue-depth gauge, which
// overwrites instead of adding (in-process shards leave it unset). Every
// delta carries (origin, seq) with seq strictly increasing per origin;
// receivers drop seq <= last-seen via DeltaDedup, which makes redelivery
// (wire retransmit, duplicated broadcast) harmless.
//
// The in-process StateSyncBus is a plain mailbox fabric — publish copies the
// delta into every other shard's inbox in shard order, drain empties an
// inbox — deterministic and single-threaded by design (callers serialise;
// the sharded control plane documents the locking contract). The wire
// transport (net/wire.h GossipDeltaMsg) carries the same struct between
// dispatcher and daemons.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/types.h"

namespace tailguard {

struct ShardDelta {
  /// Originating shard (in-process) or 0 (daemons don't know their index;
  /// wire receivers key dedup by connection instead).
  std::uint32_t origin = 0;
  /// Strictly increasing per origin; receivers drop seq <= last seen.
  std::uint64_t seq = 0;

  struct ServerEntry {
    ServerId server = 0;
    /// New post-queuing-time observations since the previous delta. May be
    /// thinned to a cap; `samples_dropped` counts what the thinning lost.
    std::vector<double> samples_ms;
    std::uint64_t samples_dropped = 0;
    /// The sending daemon's queue depth on this server, valid only when
    /// has_load. A gauge: receivers overwrite, never add. Filled only on the
    /// wire (daemon -> dispatcher GossipDelta); the dispatcher folds it into
    /// its placement candidates' loads.
    std::uint32_t load_estimate = 0;
    bool has_load = false;

    friend bool operator==(const ServerEntry&, const ServerEntry&) = default;
  };
  std::vector<ServerEntry> servers;

  /// Admission-window increments since the previous delta.
  std::uint64_t dequeues_recorded = 0;
  std::uint64_t dequeues_missed = 0;

  bool empty() const {
    return servers.empty() && dequeues_recorded == 0 && dequeues_missed == 0;
  }

  friend bool operator==(const ShardDelta&, const ShardDelta&) = default;
};

/// Per-receiver duplicate filter: accepts a delta iff its seq is strictly
/// newer than the last accepted seq from that origin.
class DeltaDedup {
 public:
  /// True iff (origin, seq) is new; records it. False counts as a duplicate.
  bool accept(std::uint32_t origin, std::uint64_t seq);

  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

 private:
  std::vector<std::uint64_t> last_seq_;  ///< origin -> last accepted seq
  std::uint64_t duplicates_dropped_ = 0;
};

/// In-process broadcast fabric: shard i publishes, every other shard later
/// drains. Deterministic: inboxes are FIFO and broadcast order is shard
/// order. Not thread-safe; the owner serialises all calls.
class StateSyncBus {
 public:
  explicit StateSyncBus(std::uint32_t num_shards);

  /// Broadcasts `delta` to every shard except delta.origin.
  void publish(const ShardDelta& delta);

  /// Removes and returns everything queued for `shard`, oldest first.
  std::vector<ShardDelta> drain(std::uint32_t shard);

  std::uint64_t deltas_published() const { return deltas_published_; }
  std::uint64_t deltas_delivered() const { return deltas_delivered_; }

 private:
  std::vector<std::deque<ShardDelta>> inboxes_;
  std::uint64_t deltas_published_ = 0;
  std::uint64_t deltas_delivered_ = 0;
};

}  // namespace tailguard
