// The simulator's future event set (sim/simulator.cc's event loop).
//
// One shape for every run, split by event kind:
//
//   * a completion calendar for kTaskDone. A server runs one task at a
//     time, so it has at most one completion pending: the calendar is
//     "completion time per busy server". Push is a store plus an argmin
//     update, pop rescans one 8-server block and the block minima.
//     O(num_servers/8) beats a tree because the whole structure is a few
//     flat cache lines.
//   * a 4-ary min-heap for the network model's kTaskEnqueue and
//     kResultArrival events, the only kinds in flight in numbers that the
//     run does not bound by its server count. Both sifts move a hole and
//     store the sifted event once. Without a network model it stays empty.
//
// pop() takes the smaller of the calendar minimum and the heap top under
// Event's operator>. Every live event has a unique (time, key), so the
// merge pops the exact (time, key) order of one combined queue.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "core/types.h"

namespace tailguard::sim_detail {

// 16 bytes: the discriminant fields are packed into one integer whose
// numeric order equals the old lexicographic (kind, server, payload) order,
// so a tie on `time` is broken by a single compare and heap moves copy two
// words. Arrivals are not Events at all — they come from a time-monotone
// generator that the main loop merges with the queue (an arrival wins time
// ties because every queued kind is > kArrival's 0).
struct Event {
  TimeMs time = 0.0;
  std::uint64_t key = 0;  // kind << 62 | server << 32 | payload

  enum Kind : std::uint8_t {
    kTaskEnqueue = 1,    // task reaches its server after dispatch delay
    kTaskDone = 2,       // server finishes its current task
    kResultArrival = 3,  // result reaches the query handler
  };

  Event() = default;
  Event(TimeMs t, Kind k, ServerId server, std::uint32_t payload = 0)
      : time(t),
        key((std::uint64_t{k} << 62) | (std::uint64_t{server} << 32) |
            payload) {
    TG_DCHECK(server < (1u << 30));
  }

  Kind kind() const { return static_cast<Kind>(key >> 62); }
  ServerId server() const {
    return static_cast<ServerId>((key >> 32) & ((1u << 30) - 1));
  }
  std::uint32_t payload() const { return static_cast<std::uint32_t>(key); }

  // Min-heap ordering; the packed key breaks time ties deterministically.
  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.key > b.key;
  }
};

class EventQueue {
 public:
  static constexpr double kIdle = std::numeric_limits<double>::infinity();

  /// A calendar for `num_servers` servers and a heap reserved for
  /// `network_events` in-flight kTaskEnqueue / kResultArrival events.
  EventQueue(std::size_t num_servers, std::size_t network_events) {
    const std::size_t padded = (num_servers + kBlock - 1) & ~(kBlock - 1);
    done_.assign(padded, kIdle);
    // Rounded up to an even count (any extra entry pinned at kIdle) so
    // the SSE2 rescan can always load block minima two at a time.
    block_min_.assign((padded / kBlock + 1) & ~std::size_t{1}, kIdle);
    heap_.reserve(network_events);
  }

  void push(const Event& e) {
    if (e.kind() != Event::kTaskDone) {
      push_heap(e);
      return;
    }
    TG_DCHECK(e.payload() == 0);
    const std::uint32_t sid = e.server();
    TG_DCHECK(done_[sid] == kIdle);
    done_[sid] = e.time;
    if (e.time < block_min_[sid / kBlock]) block_min_[sid / kBlock] = e.time;
    if (count_ == 0 || e.time < min_time_ ||
        (e.time == min_time_ && sid < min_idx_)) {
      min_time_ = e.time;
      min_idx_ = sid;
    }
    ++count_;
  }

  Event pop() {
    const Event done(min_time_, Event::kTaskDone, min_idx_);
    // An empty calendar's minimum is kIdle, so a non-empty heap wins.
    if (!heap_.empty() && done > heap_.front()) return pop_heap();
    done_[min_idx_] = kIdle;
    refresh_block(min_idx_ / kBlock);
    if (--count_ != 0) rescan();
    else min_time_ = kIdle;
    return done;
  }

  bool empty() const { return count_ == 0 && heap_.empty(); }

  /// Time of the event pop() would return. Precondition: !empty().
  TimeMs peek_time() const {
    return heap_.empty() ? min_time_ : std::min(min_time_, heap_.front().time);
  }

 private:
  static constexpr std::size_t kBlock = 8;  // one cache line of doubles
  static constexpr std::size_t kArity = 4;

  // Out of line, so push() stays small enough to inline at the kTaskDone
  // sites, the only pushes a run without a network model makes.
  [[gnu::noinline]] void push_heap(const Event& e) {
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!(heap_[parent] > e)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = e;
  }

  Event pop_heap() {
    const Event top = heap_.front();
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t child = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (heap_[child] > heap_[c]) child = c;
      if (!(last > heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
    return top;
  }

  void refresh_block(std::size_t b) {
    const double* base = done_.data() + b * kBlock;
#if defined(__SSE2__)
    // Pairwise min reduction. minpd is the exact IEEE minimum and min is
    // order-independent (no NaNs here), so this equals the scalar scan.
    const __m128d m01 = _mm_min_pd(_mm_loadu_pd(base), _mm_loadu_pd(base + 2));
    const __m128d m23 =
        _mm_min_pd(_mm_loadu_pd(base + 4), _mm_loadu_pd(base + 6));
    const __m128d m = _mm_min_pd(m01, m23);
    block_min_[b] = _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
#else
    double m = kIdle;
    for (std::size_t i = 0; i < kBlock; ++i) m = std::min(m, base[i]);
    block_min_[b] = m;
#endif
  }

  // First minimal block, then the first minimal server inside it — exactly
  // the (time, kind, server) tie order since calendar events differ only in
  // server id. The SSE2 path keeps that order via two exact passes: reduce
  // to the minimum value, then take the first index comparing equal (cmpeq
  // ties resolve to the lowest lane, same as the scalar strict-< scan).
  void rescan() {
#if defined(__SSE2__)
    const double* bm = block_min_.data();
    const std::size_t nb = block_min_.size();  // even by construction
    // Two independent accumulator chains hide the minpd latency.
    __m128d acc0 = _mm_loadu_pd(bm);
    __m128d acc1 = _mm_set1_pd(kIdle);
    std::size_t b = 2;
    for (; b + 2 <= nb; b += 4) {
      acc1 = _mm_min_pd(acc1, _mm_loadu_pd(bm + b));
      if (b + 4 <= nb) acc0 = _mm_min_pd(acc0, _mm_loadu_pd(bm + b + 2));
    }
    const __m128d acc = _mm_min_pd(acc0, acc1);
    const double m =
        _mm_cvtsd_f64(_mm_min_sd(acc, _mm_unpackhi_pd(acc, acc)));
    // First-equal scan: accumulate the per-pair cmpeq masks of 64 blocks
    // into one bitmask word, branch-free within the word, and take the
    // lowest set bit of the first non-zero word. Up to 512 servers that is
    // one word. count_ != 0 here, so m < kIdle is some block's minimum (a
    // word matches) and the kIdle padding can never match.
    const __m128d mv = _mm_set1_pd(m);
    std::size_t word = 0;
    std::uint64_t mask = 0;
    for (;; word += 64) {
      const std::size_t end = std::min(word + 64, nb);
      for (std::size_t p = word; p < end; p += 2)
        mask |= static_cast<std::uint64_t>(_mm_movemask_pd(
                    _mm_cmpeq_pd(_mm_loadu_pd(bm + p), mv)))
                << (p - word);
      if (mask != 0) break;
    }
    const std::size_t best =
        word + static_cast<std::size_t>(__builtin_ctzll(mask));
    const double* base = done_.data() + best * kBlock;
    std::uint64_t bmask = 0;
    for (std::size_t i = 0; i < kBlock; i += 2)
      bmask |= static_cast<std::uint64_t>(_mm_movemask_pd(
                   _mm_cmpeq_pd(_mm_loadu_pd(base + i), mv)))
               << i;
    const std::size_t off =
        static_cast<std::size_t>(__builtin_ctzll(bmask));
    min_time_ = m;
    min_idx_ = static_cast<std::uint32_t>(best * kBlock + off);
#else
    std::size_t best = 0;
    for (std::size_t b = 1; b < block_min_.size(); ++b)
      if (block_min_[b] < block_min_[best]) best = b;
    const double* base = done_.data() + best * kBlock;
    std::size_t off = 0;
    for (std::size_t i = 1; i < kBlock; ++i)
      if (base[i] < base[off]) off = i;
    min_time_ = base[off];
    min_idx_ = static_cast<std::uint32_t>(best * kBlock + off);
#endif
  }

  // completion calendar (kTaskDone)
  std::vector<double> done_;       // completion time per server, kIdle if none
  std::vector<double> block_min_;  // min of each kBlock-server block
  std::size_t count_ = 0;
  double min_time_ = kIdle;        // kIdle while the calendar is empty
  std::uint32_t min_idx_ = 0;
  // network events (kTaskEnqueue, kResultArrival)
  std::vector<Event> heap_;        // 4-ary min-heap under operator>
};

}  // namespace tailguard::sim_detail
