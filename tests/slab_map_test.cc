// Tests for the slab-backed hot-path maps (common/slab_map.h): dense and
// strided id progressions, freelist recycling, growth behaviour, id-order
// iteration determinism, dead-prefix trimming for growing ids, and the
// insert-only hash cache's clear()-keeps-capacity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/slab_map.h"

namespace tailguard {
namespace {

TEST(SlabMap, InsertFindErase) {
  SlabMap<int> m;
  EXPECT_TRUE(m.empty());
  m.emplace(0) = 10;
  m.emplace(1) = 11;
  m.emplace(2) = 12;
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 11);
  EXPECT_EQ(m.find(7), nullptr);  // beyond the slot table
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));  // already dead
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SlabMap, ErasedSlotsAreRecycled) {
  SlabMap<std::uint64_t> m;
  // Fill, erase everything, refill with fresh ids: the slab must reuse the
  // freed slots rather than grow, which shows up as stable entry addresses.
  for (std::uint64_t id = 0; id < 8; ++id) m.emplace(id) = id;
  std::set<const std::uint64_t*> first_wave;
  for (std::uint64_t id = 0; id < 8; ++id) first_wave.insert(m.find(id));
  for (std::uint64_t id = 0; id < 8; ++id) EXPECT_TRUE(m.erase(id));
  EXPECT_TRUE(m.empty());
  for (std::uint64_t id = 8; id < 16; ++id) m.emplace(id) = id;
  for (std::uint64_t id = 8; id < 16; ++id) {
    ASSERT_NE(m.find(id), nullptr);
    EXPECT_EQ(*m.find(id), id);
    EXPECT_TRUE(first_wave.count(m.find(id))) << "slot not recycled";
  }
}

TEST(SlabMap, GrowthBackfillsGaps) {
  SlabMap<int> m;
  // Out-of-order arrival within the progression: the slot table backfills
  // skipped ids as absent.
  m.emplace(6) = 6;
  m.emplace(2) = 2;
  EXPECT_EQ(m.size(), 2u);
  for (std::uint64_t id = 0; id < 8; ++id)
    EXPECT_EQ(m.contains(id), id == 2 || id == 6) << id;
  m.emplace(4) = 4;
  EXPECT_EQ(*m.find(4), 4);
}

TEST(SlabMap, StridedIdsMapDensely) {
  // Shard 2 of 5 in the QueryTracker id scheme: ids 2, 7, 12, ...
  SlabMap<std::uint64_t> m(2, 5);
  for (std::uint64_t i = 0; i < 100; ++i) m.emplace(2 + 5 * i) = i;
  EXPECT_EQ(m.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_NE(m.find(2 + 5 * i), nullptr);
    EXPECT_EQ(*m.find(2 + 5 * i), i);
  }
  EXPECT_TRUE(m.erase(2 + 5 * 50));
  EXPECT_FALSE(m.contains(2 + 5 * 50));
  EXPECT_EQ(m.size(), 99u);
}

TEST(SlabMap, IterationIsIdOrderedRegardlessOfHistory) {
  // Two maps reach the same live set by different insert/erase histories;
  // for_each must visit identical (id, value) sequences, ascending by id.
  SlabMap<int> a;
  for (std::uint64_t id = 0; id < 50; ++id) a.emplace(id) = static_cast<int>(id);
  for (std::uint64_t id = 0; id < 50; id += 2) a.erase(id);

  SlabMap<int> b;
  for (std::uint64_t id = 49; id < 50; id -= 2)  // 49, 47, ..., 1
    b.emplace(id) = static_cast<int>(id);
  b.emplace(0) = 0;
  b.erase(0);

  const auto collect = [](SlabMap<int>& m) {
    std::vector<std::pair<std::uint64_t, int>> out;
    m.for_each([&](std::uint64_t id, int& v) { out.emplace_back(id, v); });
    return out;
  };
  const auto va = collect(a);
  const auto vb = collect(b);
  EXPECT_EQ(va, vb);
  EXPECT_TRUE(std::is_sorted(va.begin(), va.end()));
  ASSERT_EQ(va.size(), 25u);
  EXPECT_EQ(va.front().first, 1u);
  EXPECT_EQ(va.back().first, 49u);
}

TEST(SlabMap, ClearRestartsProgressionKeepingCapacity) {
  SlabMap<int> m;
  m.reserve(64, 64);
  for (std::uint64_t id = 0; id < 64; ++id) m.emplace(id) = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(0), nullptr);
  // Ids restart from the beginning of the progression after clear().
  m.emplace(0) = 2;
  EXPECT_EQ(*m.find(0), 2);
}

TEST(SlabMap, RandomizedAgainstReferenceModel) {
  // Growing ids checked against a std::set after every step. Erasures are
  // uniform over the whole live set (freelist reuse in random order, id-order
  // iteration over a scattered table) or pick among the eight oldest ids, so
  // the prefix dies too. Every insert first offers the table a trim, as
  // QueryTracker does; over the run the dead prefix is dropped a few times
  // while thousands of ids stay live.
  Rng rng(1234);
  SlabMap<std::uint64_t> m(1, 3);  // ids 1, 4, 7, ...
  std::set<std::uint64_t> live;
  std::uint64_t next = 0;
  const auto check_iteration = [&] {
    std::vector<std::uint64_t> seen;
    m.for_each([&](std::uint64_t id, std::uint64_t& v) {
      EXPECT_EQ(v, id * 10);
      seen.push_back(id);
    });
    ASSERT_EQ(seen, std::vector<std::uint64_t>(live.begin(), live.end()));
  };
  for (int step = 0; step < 60000; ++step) {
    const double u = rng.uniform();
    if (live.empty() || u < 0.5) {
      const std::uint64_t id = 1 + 3 * next++;
      m.drop_dead_prefix();
      m.emplace(id) = id * 10;
      live.insert(id);
    } else if (u < 0.9) {
      const std::size_t among =
          u < 0.7 ? live.size() : std::min<std::size_t>(live.size(), 8);
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform_index(among)));
      EXPECT_TRUE(m.erase(*it));
      live.erase(it);
    } else {
      m.drop_dead_prefix();  // not before an insert: a no-op or a trim
    }
    ASSERT_EQ(m.size(), live.size());
    // Probe a random id ever issued (live, erased or dropped), the oldest
    // live one and the next one, not yet issued.
    for (const std::uint64_t probe :
         {1 + 3 * rng.uniform_index(next),
          live.empty() ? std::uint64_t{1} : *live.begin(), 1 + 3 * next})
      ASSERT_EQ(m.contains(probe), live.count(probe) == 1) << probe;
    if (step % 1000 == 999) check_iteration();
  }
  check_iteration();
}

TEST(SlabMap, DroppedPrefixReadsAbsentAndClearResetsIt) {
  SlabMap<int> m;
  constexpr std::uint64_t kIds = 20000;
  m.reserve(kIds, kIds);
  for (std::uint64_t id = 0; id < kIds; ++id) m.emplace(id) = 1;
  for (std::uint64_t id = 0; id + 10 < kIds; ++id) m.erase(id);
  m.drop_dead_prefix();  // full table, 19990 dead leading slots: dropped
  EXPECT_EQ(m.size(), 10u);
  // Ids below the dropped prefix read as absent, never as a wrapped index.
  for (const std::uint64_t id :
       {std::uint64_t{0}, std::uint64_t{1}, kIds - 11}) {
    EXPECT_FALSE(m.contains(id)) << id;
    EXPECT_EQ(m.find(id), nullptr) << id;
    EXPECT_FALSE(m.erase(id)) << id;
  }
  std::vector<std::uint64_t> seen;
  m.for_each([&](std::uint64_t id, int&) { seen.push_back(id); });
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), kIds - 10);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  m.emplace(kIds) = 2;  // ids keep growing past the dropped prefix
  EXPECT_EQ(*m.find(kIds), 2);

  m.clear();  // the id history restarts at 0
  EXPECT_FALSE(m.contains(kIds));
  m.emplace(0) = 3;
  EXPECT_EQ(*m.find(0), 3);
}

TEST(SlabMap, SmallDeadPrefixIsKept) {
  // Under kMinDroppedPrefix dead slots nothing moves, even on a full table;
  // lookups are unchanged.
  SlabMap<int> m;
  m.reserve(100, 100);
  for (std::uint64_t id = 0; id < 100; ++id)
    m.emplace(id) = static_cast<int>(id);
  for (std::uint64_t id = 0; id < 99; ++id) m.erase(id);
  m.drop_dead_prefix();
  EXPECT_FALSE(m.contains(5));
  ASSERT_NE(m.find(99), nullptr);
  EXPECT_EQ(*m.find(99), 99);
  m.emplace(100) = 100;
  EXPECT_EQ(m.size(), 2u);
}

TEST(SlabHashCache, InsertFindAndCollisions) {
  SlabHashCache<int> c;
  EXPECT_EQ(c.find(0), nullptr);  // empty cache, no buckets yet
  // Structured keys of the (cls << 32) | fanout kind; enough of them to
  // force growth and open-addressed collisions.
  for (std::uint64_t cls = 0; cls < 8; ++cls)
    for (std::uint64_t fanout = 1; fanout <= 64; ++fanout)
      c.insert((cls << 32) | fanout, static_cast<int>(cls * 1000 + fanout));
  EXPECT_EQ(c.size(), 8u * 64u);
  for (std::uint64_t cls = 0; cls < 8; ++cls)
    for (std::uint64_t fanout = 1; fanout <= 64; ++fanout) {
      int* hit = c.find((cls << 32) | fanout);
      ASSERT_NE(hit, nullptr);
      EXPECT_EQ(*hit, static_cast<int>(cls * 1000 + fanout));
    }
  EXPECT_EQ(c.find(~0ULL), nullptr);
}

TEST(SlabHashCache, ClearKeepsCapacityAndRefills) {
  SlabHashCache<double> c;
  for (std::uint64_t k = 0; k < 100; ++k) c.insert(k, static_cast<double>(k));
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.find(5), nullptr);
  // The version-bump refill pattern: same keys, new values.
  for (std::uint64_t k = 0; k < 100; ++k)
    c.insert(k, static_cast<double>(k) * 2);
  ASSERT_NE(c.find(99), nullptr);
  EXPECT_EQ(*c.find(99), 198.0);
}

}  // namespace
}  // namespace tailguard
