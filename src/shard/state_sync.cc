#include "shard/state_sync.h"

#include <iterator>

#include "common/check.h"

namespace tailguard {

bool DeltaDedup::accept(std::uint32_t origin, std::uint64_t seq) {
  if (origin >= last_seq_.size()) last_seq_.resize(origin + 1, 0);
  if (seq <= last_seq_[origin]) {
    ++duplicates_dropped_;
    return false;
  }
  last_seq_[origin] = seq;
  return true;
}

StateSyncBus::StateSyncBus(std::uint32_t num_shards) : inboxes_(num_shards) {
  TG_CHECK_MSG(num_shards >= 1, "bus needs >= 1 shard");
}

void StateSyncBus::publish(const ShardDelta& delta) {
  TG_CHECK_MSG(delta.origin < inboxes_.size(), "origin out of range");
  ++deltas_published_;
  for (std::uint32_t s = 0; s < inboxes_.size(); ++s) {
    if (s == delta.origin) continue;
    inboxes_[s].push_back(delta);
  }
}

std::vector<ShardDelta> StateSyncBus::drain(std::uint32_t shard) {
  TG_CHECK_MSG(shard < inboxes_.size(), "shard out of range");
  std::deque<ShardDelta>& inbox = inboxes_[shard];
  std::vector<ShardDelta> out(std::make_move_iterator(inbox.begin()),
                              std::make_move_iterator(inbox.end()));
  inbox.clear();
  deltas_delivered_ += out.size();
  return out;
}

}  // namespace tailguard
