// A networked TailGuard task server (one box of Fig. 2's task-server tier).
//
// Wraps the same policy queues and worker execution loop as the in-process
// runtime (runtime/Worker — the code path is shared, not duplicated) behind
// an async TCP loop (epoll via net/poller.h) speaking the net/wire.h
// protocol:
//
//   dispatcher --- SubmitTask ---> [policy queue] -> executor thread(s)
//   dispatcher <--- TaskDone ----- (queue_ms, post-queuing time, miss flag)
//
// Queuing deadlines arrive as durations relative to receipt and are stamped
// against the server's local monotonic clock, so dispatcher and server never
// need synchronised clocks. Every other observation travels as a GossipDelta,
// one seq-numbered stream per connection. Completions for tasks whose
// connection has gone away are buffered as post-queuing-time samples and
// sent as the first GossipDelta of the next dispatcher to (re)connect — its
// frozen CDF model catches up on rejoin (paper §III.B.2's online updating,
// resumed).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "net/poller.h"
#include "net/send_queue.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/worker.h"

namespace tailguard::net {

struct TaskServerOptions {
  /// Port to listen on (loopback). 0 = kernel-assigned; read back via port().
  std::uint16_t port = 0;
  Policy policy = Policy::kTfEdf;
  std::size_t num_classes = 2;
  /// Execution threads. The paper's task servers are single-threaded (one
  /// policy queue, one executor); >1 shares the accept loop across several
  /// independently-queued executors.
  std::size_t num_executors = 1;
  /// Delta-gossip period (local-clock ms). When > 0 the server streams each
  /// dispatcher a periodic GossipDelta of the completions *other*
  /// connections produced (samples, miss-window increments) plus a
  /// queue-depth load gauge, one GossipDeltaMsg (net/wire.h) each. 0 (the
  /// default) disables gossip: a dispatcher then gets only its TaskDones
  /// and, at Hello, the rejoin backfill.
  TimeMs gossip_interval_ms = 0.0;
};

class TaskServer {
 public:
  /// Binds, starts the executor threads and the network thread. Throws
  /// CheckFailure when the port cannot be bound.
  explicit TaskServer(TaskServerOptions options);
  ~TaskServer();

  TaskServer(const TaskServer&) = delete;
  TaskServer& operator=(const TaskServer&) = delete;

  /// Closes the listen socket and all connections, drains the executors.
  /// Idempotent.
  void stop();

  /// Bound port (resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

  /// Local monotonic clock (ms since construction).
  TimeMs now_ms() const;

  std::uint64_t tasks_executed() const;
  std::uint64_t tasks_missed_deadline() const;
  std::size_t queue_depth() const;
  /// GossipDelta frames queued so far, rejoin backfills included.
  std::uint64_t gossip_deltas_sent() const;

 private:
  struct Connection {
    ScopedFd fd;
    FrameBuffer in;
    /// Outbound frames, coalesced and flushed with vectored sends. Encode
    /// with `encode_into(msg, conn.out.chunk())`. The net loop flushes it
    /// before each wait; while it waits, an executor with no backlog sends
    /// its own TaskDone frame (send_now()).
    SendQueue out;
    bool hello_done = false;
    /// Marked instead of closing inline so the net loop's sweep can
    /// deregister the fd from the poller before the number is recycled.
    bool dead = false;
    /// What gossip owes THIS dispatcher: observations produced by tasks
    /// that *other* connections submitted. The owning connection's own
    /// completions travel in its TaskDone frames — excluding them here is
    /// what keeps every sample exactly-once per dispatcher.
    GossipDeltaMsg gossip;
  };

  /// Where a task came from, for routing its TaskDone.
  struct TaskOrigin {
    std::uint64_t conn = 0;
    /// The submitting dispatcher's id for the task.
    TaskId task = 0;
    TimeMs enqueue_ms = 0.0;
  };

  /// A decoded SubmitTask waiting for the net loop to hand it to an
  /// executor once mu_ is released.
  struct Submission {
    RuntimeTask task;
    TimeMs enqueue_ms = 0.0;
    TimeMs order_deadline = 0.0;
  };

  void net_loop() TG_EXCLUDES(mu_);
  void accept_new_connections() TG_REQUIRES(mu_);
  /// Returns false when the connection must be closed.
  bool read_connection(std::uint64_t conn_id, Connection& conn)
      TG_REQUIRES(mu_);
  void handle_frame(std::uint64_t conn_id, Connection& conn,
                    const Frame& frame) TG_REQUIRES(mu_);
  /// Flushes pending output on every live connection, closes dead ones
  /// (deregistering from the poller first) and refreshes poller interest.
  void flush_and_sweep_connections() TG_REQUIRES(mu_);
  /// Flushes `conn` on an executor's thread while the net loop waits.
  /// Returns whether the loop must be woken — to arm EPOLLOUT after a
  /// partial write, or to close the connection after a send error.
  bool send_now(Connection& conn) TG_REQUIRES(mu_);
  /// Emits one GossipDelta per live connection when the gossip boundary has
  /// passed, then re-arms. No-op while gossip is disabled.
  void maybe_gossip(TimeMs now) TG_REQUIRES(mu_);
  /// The one way a delta leaves: stamps the next seq, queues `delta` on
  /// `conn` as a GossipDelta and leaves `delta` empty.
  void send_delta(Connection& conn, GossipDeltaMsg& delta) TG_REQUIRES(mu_);
  void on_task_complete(ServerId executor, const RuntimeTask& task,
                        TimeMs dequeue_ms, TimeMs complete_ms)
      TG_EXCLUDES(mu_);

  // tg-lint: allow(guarded-member): immutable after construction.
  TaskServerOptions options_;
  // tg-lint: allow(guarded-member): immutable after construction.
  std::chrono::steady_clock::time_point epoch_;
  // tg-lint: allow(guarded-member): written once by the constructor.
  std::uint16_t port_ = 0;
  // Net-thread private after the bind; stop() only resets it after joining
  // that thread. tg-lint: allow(guarded-member)
  ScopedFd listen_fd_;
  // WakePipe is self-synchronizing: rung by an executor during a wait when
  // its send blocked or failed, or when it leaves a TaskDone for the loop
  // because it has more tasks queued; drained by the net thread.
  // tg-lint: allow(guarded-member)
  WakePipe wake_;
  // tg-lint: allow(guarded-member): net-thread private after construction.
  Poller poller_;
  std::atomic<bool> running_{true};

  mutable Mutex mu_;
  std::unordered_map<std::uint64_t, Connection> conns_ TG_GUARDED_BY(mu_);
  /// fd -> connection id.
  std::unordered_map<int, std::uint64_t> fd_conn_ TG_GUARDED_BY(mu_);
  std::uint64_t next_conn_id_ TG_GUARDED_BY(mu_) = 1;
  /// Daemon-wide task ids, unique across connections; task_origin_'s keys.
  TaskId next_task_id_ TG_GUARDED_BY(mu_) = 0;
  std::unordered_map<TaskId, TaskOrigin> task_origin_ TG_GUARDED_BY(mu_);
  std::vector<Submission> submissions_ TG_GUARDED_BY(mu_);
  /// Samples of completions whose owner connection was gone: the next
  /// connection's first delta.
  GossipDeltaMsg orphaned_ TG_GUARDED_BY(mu_);
  std::uint64_t tasks_executed_ TG_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_missed_ TG_GUARDED_BY(mu_) = 0;
  /// Shared across connections: strictly increasing overall, hence strictly
  /// increasing along any one connection's subsequence — which is all the
  /// per-connection dedup on the dispatcher side needs.
  std::uint64_t next_gossip_seq_ TG_GUARDED_BY(mu_) = 1;
  TimeMs next_gossip_ms_ TG_GUARDED_BY(mu_) = 0.0;
  std::uint64_t gossip_deltas_sent_ TG_GUARDED_BY(mu_) = 0;
  bool stopped_ TG_GUARDED_BY(mu_) = false;
  /// True while the net loop waits, from its pre-wait flush to the end of
  /// the wait: an executor with no backlog then sends its own TaskDone
  /// frame. While the loop runs executors only queue, and it flushes before
  /// it waits again.
  bool waiting_ TG_GUARDED_BY(mu_) = false;

  std::thread net_thread_;
  // Executors last: their threads must drain and stop before the state above
  // is torn down (reverse member destruction order guarantees it). The
  // vector itself is immutable after construction; Worker is thread-safe.
  // tg-lint: allow(guarded-member)
  std::vector<std::unique_ptr<Worker>> executors_;
};

}  // namespace tailguard::net
