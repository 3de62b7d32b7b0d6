// I/O readiness multiplexing behind the net loops: epoll(7).
//
// Both net loops (task_server.cc, dispatcher.cc) used to rebuild a pollfd
// array and re-enter the kernel with the full descriptor set every
// iteration — O(connections) of setup per wakeup even when nothing changed.
// The Poller keeps the interest set cached: `watch()` is idempotent and only
// edges (new fd, changed read/write interest) reach the kernel via
// epoll_ctl, so a steady-state wakeup costs one epoll_wait. A failed
// epoll_ctl throws CheckFailure: a descriptor the kernel does not watch
// would never report readiness, and its tasks would only end by timeout.
//
// Level-triggered, so a loop that services only part of the ready data is
// re-notified — no edge-trigger starvation hazards.
// Single-threaded by design: a Poller belongs to exactly one net loop.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/socket.h"

namespace tailguard::net {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// EPOLLERR/EPOLLHUP: the peer is gone or the descriptor is broken;
    /// the owner should tear the connection down.
    bool closed = false;
  };

  /// Creates the epoll instance. Throws CheckFailure when epoll_create1
  /// fails.
  Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Declares interest in `fd`. Cheap when nothing changed — loops call it
  /// every iteration and only interest *edges* become syscalls.
  void watch(int fd, bool want_read, bool want_write);

  /// Drops `fd` from the interest set. Must be called before the descriptor
  /// is closed: fd numbers are recycled by the kernel, and a stale cache
  /// entry would make a later watch() on the reused number a silent no-op.
  void forget(int fd);

  /// Waits up to `timeout_ms` for readiness and appends one Event per ready
  /// descriptor to `out` (not cleared). Returns the number of ready
  /// descriptors, 0 on timeout, and treats EINTR as a timeout.
  int wait(std::vector<Event>& out, int timeout_ms);

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  static constexpr int kMaxBatch = 64;

  ScopedFd epfd_;
  std::unordered_map<int, Interest> interest_;
};

}  // namespace tailguard::net
