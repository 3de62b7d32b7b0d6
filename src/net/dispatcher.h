// RemoteDispatcher — the query-handler side of a distributed TailGuard
// deployment (Fig. 2), mirroring the TailGuardService API over TCP.
//
// Per remote task server it keeps a persistent connection and a
// StreamingCdfModel of that server's unloaded task response time; Eq. 6
// deadline assignment happens at submit against the chosen server set, and
// completion (TaskDone) frames feed the online updating process (§III.B.2)
// exactly as the in-process runtime's completion callback does.
//
// Partial failure is a first-class state, not an error path:
//   * a dead server is excluded from placement and its CDF model frozen (no
//     observations arrive) until it rejoins;
//   * in-flight tasks on a dying connection fail immediately — the owning
//     queries complete with `tasks_failed` counts instead of hanging;
//   * per-task timeouts bound the wait on a wedged-but-connected server;
//   * reconnects use exponential backoff, and a rejoining server backfills
//     the model: its first GossipDelta carries the samples of tasks that
//     finished while their owner was disconnected.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "net/poller.h"
#include "net/send_queue.h"
#include "net/socket.h"
#include "net/wire.h"
#include "shard/query_front_door.h"

namespace tailguard::net {

struct RemoteServerSpec {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// One task of a remote query. Closures cannot cross the wire; remote tasks
/// carry a simulated service duration (real deployments would ship an opaque
/// request payload here).
struct RemoteTaskSpec {
  /// Target server; unset means least-loaded distinct placement.
  std::optional<ServerId> server;
  TimeMs simulated_service_ms = 0.0;
};

struct DispatcherOptions {
  std::vector<RemoteServerSpec> servers;
  Policy policy = Policy::kTfEdf;
  /// Service classes ordered by priority (class 0 tightest).
  std::vector<ClassSpec> classes;
  StreamingCdfModel::Options model_options = {.refresh_every = 500};
  /// A task unanswered this long after submit counts as failed.
  TimeMs task_timeout_ms = 5000.0;
  TimeMs reconnect_initial_backoff_ms = 25.0;
  TimeMs reconnect_max_backoff_ms = 1000.0;
  /// Query admission control (§III.C); disabled when unset. The window is
  /// fed by TaskDone miss flags, so the distributed deployment sheds load
  /// exactly like the in-process runtime.
  std::optional<AdmissionOptions> admission;
  std::uint64_t seed = 42;
  /// Placement policy for auto-placed tasks (core/placement/policy.h).
  /// Candidates are the alive servers ranked by our in-flight count plus the
  /// daemon's last gossiped queue-depth gauge, whatever the policy.
  PlacementPolicyOptions placement;
  /// Called once per admitted query with its servers (see
  /// QueryFrontDoor::Observer); keep it cheap. For the parity tests.
  QueryFrontDoor::Observer placement_observer;
};

class RemoteDispatcher {
 public:
  explicit RemoteDispatcher(DispatcherOptions options);
  /// Fails all in-flight queries (resolving their futures) and disconnects.
  ~RemoteDispatcher();

  RemoteDispatcher(const RemoteDispatcher&) = delete;
  RemoteDispatcher& operator=(const RemoteDispatcher&) = delete;

  /// Offline estimation: seeds every server's CDF model.
  void seed_profile(std::span<const double> samples_ms);

  /// Submits a query of class `cls`. The future resolves when every task has
  /// reported done, failed, or timed out — it never hangs on a dead server.
  /// With no server alive the query completes immediately with all tasks
  /// failed. `budget_override` replaces the Eq. 6 budget, as in
  /// TailGuardService::submit.
  std::future<QueryResult> submit(ClassId cls,
                                  std::vector<RemoteTaskSpec> tasks,
                                  std::optional<TimeMs> budget_override = {});

  /// Blocks until at least `min_alive` servers have completed the handshake
  /// (or `timeout_ms` elapses). Returns whether the threshold was reached.
  bool wait_for_servers(std::size_t min_alive, TimeMs timeout_ms);

  /// Fire-and-forget StatsRequest to `server`; the reply (when it arrives)
  /// is readable via last_stats().
  void request_stats(ServerId server);
  std::optional<StatsResponseMsg> last_stats(ServerId server) const;

  /// Monotonic dispatcher clock (ms since construction).
  TimeMs now_ms() const;

  std::size_t num_servers() const { return options_.servers.size(); }
  std::size_t alive_servers() const;
  std::uint64_t completed_queries() const;
  std::uint64_t rejected_queries() const;
  std::uint64_t failed_tasks() const;
  double deadline_miss_ratio() const;
  /// Snapshot of a server's CDF model: a deep copy taken under mu_, safe to
  /// read while TaskDone frames keep feeding the live model. (Returning a
  /// reference here used to escape the lock — caught by the annotation
  /// pass.)
  std::shared_ptr<const CdfModel> server_model(ServerId server) const;

  /// GossipDelta frames absorbed, rejoin backfills included.
  std::uint64_t gossip_deltas_absorbed() const;
  std::uint64_t gossip_duplicates_dropped() const;

  /// Placement observability: which policy ran and its per-decision
  /// counters.
  PlacementPolicyKind placement_kind() const;
  PlacementStats placement_stats() const;

 private:
  enum class ConnState {
    kBackoff,      ///< disconnected, waiting for next_attempt_ms
    kConnecting,   ///< non-blocking connect in flight
    kHandshaking,  ///< connected, Hello sent, awaiting HelloAck
    kAlive,        ///< handshake complete; eligible for placement
  };

  struct ServerConn {
    RemoteServerSpec spec;
    ScopedFd fd;
    ConnState state = ConnState::kBackoff;
    FrameBuffer in;
    /// Outbound frames, coalesced and flushed with vectored sends. Encode
    /// with `encode_into(msg, conn.out.chunk())` — a fan-out burst of
    /// SubmitTask frames becomes one buffer and one syscall, sent by the
    /// net loop before it waits or, while it waits, by send_now() on the
    /// thread that queued it.
    SendQueue out;
    /// A send failed on a caller's thread; the net loop disconnects (only
    /// it may forget and close the fd).
    bool send_failed = false;
    TimeMs next_attempt_ms = 0.0;
    TimeMs backoff_ms = 0.0;
    std::size_t in_flight = 0;
    std::optional<StatsResponseMsg> stats;
    /// Per-connection gossip dedup: daemons share no origin namespace, so
    /// (connection, seq) is the delta identity over the wire. Reset on
    /// reconnect (a restarted daemon restarts its seq).
    std::uint64_t last_gossip_seq = 0;
    /// Last queue-depth gauge gossiped by the daemon: cluster-wide load this
    /// dispatcher didn't submit. Folded into placement ranking.
    std::uint32_t gossip_queue_depth = 0;
  };

  struct InFlightTask {
    QueryId query = 0;
    ServerId server = 0;
  };

  void net_loop() TG_EXCLUDES(mu_);
  void start_connect(ServerId server, TimeMs now) TG_REQUIRES(mu_);
  void disconnect(ServerId server, TimeMs now,
                  std::vector<FinishedQuery>* finished) TG_REQUIRES(mu_);
  bool read_server(ServerId server, std::vector<FinishedQuery>* finished)
      TG_REQUIRES(mu_);
  void handle_frame(ServerId server, const Frame& frame,
                    std::vector<FinishedQuery>* finished) TG_REQUIRES(mu_);
  /// Records one answered or failed task of `query`; appends the query when
  /// it was its last, to resolve once mu_ is released.
  void finish_task(QueryId query, bool missed, bool failed,
                   std::vector<FinishedQuery>* finished) TG_REQUIRES(mu_);
  void expire_timeouts(TimeMs now, std::vector<FinishedQuery>* finished)
      TG_REQUIRES(mu_);
  /// Flushes `conn` on a caller's thread while the net loop waits. Returns
  /// whether the loop must be woken — to arm EPOLLOUT after a partial
  /// write, or to disconnect after a send error.
  bool send_now(ServerConn& conn) TG_REQUIRES(mu_);
  std::size_t alive_servers_locked() const TG_REQUIRES(mu_);
  static void resolve(std::vector<FinishedQuery> finished);

  // tg-lint: allow(guarded-member): immutable after construction.
  DispatcherOptions options_;
  // tg-lint: allow(guarded-member): immutable after construction.
  std::chrono::steady_clock::time_point epoch_;
  // WakePipe is self-synchronizing: rung by a caller only when the waiting
  // loop must act (see send_now() and waiting_until_ms_), drained by the net
  // thread.
  // tg-lint: allow(guarded-member)
  WakePipe wake_;
  // tg-lint: allow(guarded-member): net-thread private after construction.
  Poller poller_;
  std::atomic<bool> running_{true};

  mutable Mutex mu_;
  CondVar alive_cv_;
  std::vector<ServerConn> servers_ TG_GUARDED_BY(mu_);
  /// The query handler shared with the in-process runtime, one shard.
  /// Incoming gossip deltas feed its plane via the absorb path.
  QueryFrontDoor door_ TG_GUARDED_BY(mu_);
  std::unordered_map<TaskId, InFlightTask> in_flight_ TG_GUARDED_BY(mu_);
  /// (deadline, task) in submit order, which is deadline order: every
  /// deadline is t0 plus the same timeout. Answered tasks are popped off
  /// the front lazily by expire_timeouts().
  std::deque<std::pair<TimeMs, TaskId>> timeouts_ TG_GUARDED_BY(mu_);
  /// Set while the net loop waits — from its pre-wait flush to the end of
  /// the wait — to when that wait ends at the latest. Callers then send
  /// their own frames, and a submit whose timeout falls earlier wakes the
  /// loop. Empty while the loop runs: it flushes every queue before it
  /// waits again, so callers only queue.
  std::optional<TimeMs> waiting_until_ms_ TG_GUARDED_BY(mu_);
  TaskId next_task_id_ TG_GUARDED_BY(mu_) = 0;
  /// Queries that degraded to an immediate all-tasks-failed result without
  /// ever registering with the control plane (no server reachable).
  std::uint64_t degraded_queries_ TG_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_failed_ TG_GUARDED_BY(mu_) = 0;
  std::uint64_t gossip_deltas_absorbed_ TG_GUARDED_BY(mu_) = 0;
  std::uint64_t gossip_duplicates_dropped_ TG_GUARDED_BY(mu_) = 0;

  std::thread net_thread_;
};

}  // namespace tailguard::net
