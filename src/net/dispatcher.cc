#include "net/dispatcher.h"

#include <algorithm>

#include "common/check.h"

namespace tailguard::net {

RemoteDispatcher::RemoteDispatcher(DispatcherOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      door_(options_, options_.servers.size()) {
  TG_CHECK_MSG(!options_.servers.empty(), "need at least one task server");
  TG_CHECK_MSG(!options_.classes.empty(), "need at least one service class");
  TG_CHECK_MSG(options_.task_timeout_ms > 0.0, "task timeout must be positive");
  servers_.resize(options_.servers.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i].spec = options_.servers[i];
    servers_[i].backoff_ms = options_.reconnect_initial_backoff_ms;
    servers_[i].next_attempt_ms = 0.0;  // connect on first loop iteration
  }
  net_thread_ = std::thread([this] { net_loop(); });
}

RemoteDispatcher::~RemoteDispatcher() {
  // Relaxed: plain shutdown latch. The net loop re-polls it every round,
  // the wake below forces a prompt round, and the join right after is the
  // real synchronization point — no data is published through this flag.
  running_.store(false, std::memory_order_relaxed);
  wake_.wake();
  if (net_thread_.joinable()) net_thread_.join();

  // Fail whatever is still in flight so no future is left hanging.
  std::vector<FinishedQuery> finished;
  {
    MutexLock lock(mu_);
    std::vector<TaskId> remaining;
    remaining.reserve(in_flight_.size());
    for (const auto& [task, info] : in_flight_) remaining.push_back(task);
    for (TaskId task : remaining) {
      const auto it = in_flight_.find(task);
      if (it == in_flight_.end()) continue;
      const QueryId query = it->second.query;
      in_flight_.erase(it);
      finish_task(query, /*missed=*/false, /*failed=*/true, &finished);
    }
    for (auto& conn : servers_) conn.fd.reset();
  }
  resolve(std::move(finished));
}

TimeMs RemoteDispatcher::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void RemoteDispatcher::seed_profile(std::span<const double> samples_ms) {
  MutexLock lock(mu_);
  for (std::size_t s = 0; s < servers_.size(); ++s)
    door_.control().seed_profile(static_cast<ServerId>(s), samples_ms);
}

std::future<QueryResult> RemoteDispatcher::submit(
    ClassId cls, std::vector<RemoteTaskSpec> tasks,
    std::optional<TimeMs> budget_override) {
  TG_CHECK_MSG(cls < options_.classes.size(), "unknown class " << cls);
  TG_CHECK_MSG(running_.load(std::memory_order_relaxed),
               "submit on a stopped dispatcher");

  const auto fanout = static_cast<std::uint32_t>(tasks.size());
  std::vector<FinishedQuery> finished;
  QueryFrontDoor::Begun begun;
  bool wake = false;
  {
    MutexLock lock(mu_);
    const TimeMs t0 = now_ms();

    std::vector<PlacementCandidate>& view = door_.candidate_view();
    for (std::size_t s = 0; s < servers_.size(); ++s)
      if (servers_[s].state == ConnState::kAlive)
        // Load = our own in-flight tasks plus the daemon's last gossiped
        // queue depth (other dispatchers' backlog; 0 in a pre-gossip fleet).
        // The two overlap — our queued tasks appear in both — which biases
        // every candidate the same way and leaves the ranking sound.
        view.emplace_back(
            servers_[s].in_flight + servers_[s].gossip_queue_depth,
            static_cast<ServerId>(s));
    const bool any_alive = !view.empty();
    // Explicit targets are honoured even when down (they fail below), the
    // rest go to the policy over the alive set. A rejected query never
    // reaches a daemon.
    const std::span<const ServerId> placed =
        door_.admit_and_place(t0, tasks, &RemoteTaskSpec::server);
    if (placed.empty())
      return QueryFrontDoor::ready(
          {.cls = cls, .fanout = fanout, .admitted = false});

    // With no server alive the query degrades to an immediate failure —
    // callers get a resolved future, never a hang.
    if (!any_alive) {
      tasks_failed_ += fanout;
      ++degraded_queries_;
      return QueryFrontDoor::ready(
          {.cls = cls, .fanout = fanout, .tasks_failed = fanout});
    }

    // Budget (Eq. 6 over the intended server set — dead explicit targets
    // included, their frozen models still describe the intent — or the
    // caller's Eq. 7 override), t_D and the ordering key.
    begun = door_.begin(t0, cls, placed, budget_override);
    const QueryId qid = begun.plan.id;

    // Deadlines are t0 plus a constant and t0 only grows under mu_, so
    // appending keeps the timeout FIFO in deadline order.
    const TimeMs timeout_at_ms = t0 + options_.task_timeout_ms;
    TG_DCHECK(timeouts_.empty() || timeouts_.back().first <= timeout_at_ms);
    std::vector<ServerId> to_send;  // queues this submit found empty
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      ServerConn& conn = servers_[placed[i]];
      if (conn.state != ConnState::kAlive) {
        finish_task(qid, /*missed=*/false, /*failed=*/true, &finished);
        continue;
      }
      SubmitTaskMsg msg;
      msg.task = next_task_id_++;
      msg.query = qid;
      msg.cls = cls;
      msg.relative_deadline_ms = begun.plan.order_deadline - t0;
      msg.simulated_service_ms = tasks[i].simulated_service_ms;
      // Frames for the same server coalesce into one chunk here and leave
      // in a single vectored send.
      if (conn.out.empty()) to_send.push_back(placed[i]);
      encode_into(msg, conn.out.chunk());
      ++conn.in_flight;
      in_flight_.emplace(msg.task, InFlightTask{qid, placed[i]});
      timeouts_.emplace_back(timeout_at_ms, msg.task);
    }
    // A running loop flushes every queue before it waits, so only a
    // waiting one leaves the send to this thread, and only for a queue it
    // found empty: one that was not holds a blocked tail, which the loop
    // sends on EPOLLOUT.
    if (waiting_until_ms_) {
      for (ServerId s : to_send) wake |= send_now(servers_[s]);
      // A timeout due before the wait ends needs the loop awake sooner.
      wake |= timeout_at_ms < *waiting_until_ms_;
    }
  }
  if (wake) wake_.wake();
  resolve(std::move(finished));
  return std::move(begun.future);
}

bool RemoteDispatcher::wait_for_servers(std::size_t min_alive,
                                        TimeMs timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  MutexLock lock(mu_);
  // Explicit deadline loop instead of the predicate overload: TSA analyzes
  // lambdas as separate functions holding no capabilities, so a predicate
  // reading servers_ cannot be annotated. Same semantics.
  while (alive_servers_locked() < min_alive) {
    if (alive_cv_.wait_until(mu_, deadline) == std::cv_status::timeout)
      return alive_servers_locked() >= min_alive;
  }
  return true;
}

std::size_t RemoteDispatcher::alive_servers_locked() const {
  std::size_t alive = 0;
  for (const auto& conn : servers_) alive += conn.state == ConnState::kAlive;
  return alive;
}

void RemoteDispatcher::request_stats(ServerId server) {
  MutexLock lock(mu_);
  TG_CHECK_MSG(server < servers_.size(), "unknown server " << server);
  ServerConn& conn = servers_[server];
  if (conn.state != ConnState::kAlive) return;
  const bool was_empty = conn.out.empty();
  encode_into(StatsRequestMsg{}, conn.out.chunk());
  // Same rule as submit(): a running loop sends it before it waits.
  if (waiting_until_ms_ && was_empty && send_now(conn)) wake_.wake();
}

std::optional<StatsResponseMsg> RemoteDispatcher::last_stats(
    ServerId server) const {
  MutexLock lock(mu_);
  TG_CHECK_MSG(server < servers_.size(), "unknown server " << server);
  return servers_[server].stats;
}

std::size_t RemoteDispatcher::alive_servers() const {
  MutexLock lock(mu_);
  return alive_servers_locked();
}

std::uint64_t RemoteDispatcher::completed_queries() const {
  MutexLock lock(mu_);
  // Degraded (no-server) queries resolve without ever registering with the
  // control plane; callers still see them as completed.
  return door_.control().queries_completed() + degraded_queries_;
}

std::uint64_t RemoteDispatcher::rejected_queries() const {
  MutexLock lock(mu_);
  return door_.control().queries_rejected();
}

std::uint64_t RemoteDispatcher::failed_tasks() const {
  MutexLock lock(mu_);
  return tasks_failed_;
}

double RemoteDispatcher::deadline_miss_ratio() const {
  MutexLock lock(mu_);
  return door_.control().task_miss_ratio();
}

std::shared_ptr<const CdfModel> RemoteDispatcher::server_model(
    ServerId server) const {
  MutexLock lock(mu_);
  // Deep-copy under the lock: handing out a reference would race with the
  // observations the net thread keeps folding into the live model.
  return door_.control().model_of(/*shard=*/0, server).clone();
}

std::uint64_t RemoteDispatcher::gossip_deltas_absorbed() const {
  MutexLock lock(mu_);
  return gossip_deltas_absorbed_;
}

std::uint64_t RemoteDispatcher::gossip_duplicates_dropped() const {
  MutexLock lock(mu_);
  return gossip_duplicates_dropped_;
}

PlacementPolicyKind RemoteDispatcher::placement_kind() const {
  MutexLock lock(mu_);
  return door_.control().placement_kind();
}

PlacementStats RemoteDispatcher::placement_stats() const {
  MutexLock lock(mu_);
  return door_.control().placement_stats();
}

// ------------------------------------------------------------ task endings

void RemoteDispatcher::finish_task(QueryId query, bool missed, bool failed,
                                   std::vector<FinishedQuery>* finished) {
  if (failed) ++tasks_failed_;
  // Over the wire the dequeue-side miss flag arrives with the completion,
  // which stands in for the dequeue time.
  const TimeMs now = now_ms();
  if (auto done = door_.finish_task(query, now, now, missed, failed))
    finished->push_back(std::move(*done));
}

void RemoteDispatcher::expire_timeouts(TimeMs now,
                                       std::vector<FinishedQuery>* finished) {
  // Answered tasks leave the front whatever their deadline, so the FIFO
  // spans only the oldest in-flight task onwards, not the whole timeout.
  while (!timeouts_.empty()) {
    const auto [deadline, task] = timeouts_.front();
    const auto it = in_flight_.find(task);
    if (it != in_flight_.end() && deadline > now) break;
    timeouts_.pop_front();
    if (it == in_flight_.end()) continue;  // already answered or failed
    const QueryId query = it->second.query;
    ServerConn& conn = servers_[it->second.server];
    if (conn.in_flight > 0) --conn.in_flight;
    in_flight_.erase(it);
    finish_task(query, /*missed=*/false, /*failed=*/true, finished);
  }
}

bool RemoteDispatcher::send_now(ServerConn& conn) {
  if (conn.send_failed) return false;  // the loop is already told
  switch (conn.out.flush(conn.fd.get())) {
    case SendQueue::FlushResult::kDrained:
      return false;
    case SendQueue::FlushResult::kBlocked:
      return true;  // the loop arms EPOLLOUT and finishes the send
    case SendQueue::FlushResult::kError:
      // Only the net thread may forget and close the fd.
      conn.send_failed = true;
      return true;
  }
  return true;
}

void RemoteDispatcher::resolve(std::vector<FinishedQuery> finished) {
  for (FinishedQuery& f : finished) f.promise.set_value(f.result);
}

// -------------------------------------------------------------- networking

void RemoteDispatcher::start_connect(ServerId server, TimeMs now) {
  ServerConn& conn = servers_[server];
  std::string error;
  conn.fd = connect_tcp(conn.spec.host, conn.spec.port, &error);
  if (!conn.fd.valid()) {
    conn.next_attempt_ms = now + conn.backoff_ms;
    conn.backoff_ms =
        std::min(conn.backoff_ms * 2.0, options_.reconnect_max_backoff_ms);
    return;
  }
  conn.state = ConnState::kConnecting;
}

void RemoteDispatcher::disconnect(ServerId server, TimeMs now,
                                  std::vector<FinishedQuery>* finished) {
  ServerConn& conn = servers_[server];
  if (conn.fd.valid()) poller_.forget(conn.fd.get());
  conn.fd.reset();
  conn.state = ConnState::kBackoff;
  conn.in = FrameBuffer{};
  conn.out.clear();
  conn.next_attempt_ms = now + conn.backoff_ms;
  conn.backoff_ms =
      std::min(conn.backoff_ms * 2.0, options_.reconnect_max_backoff_ms);
  conn.in_flight = 0;
  conn.send_failed = false;
  // A restarted daemon restarts its gossip seq; forget it.
  conn.last_gossip_seq = 0;
  conn.gossip_queue_depth = 0;

  // Graceful degradation: fail this server's in-flight tasks immediately so
  // their queries complete instead of waiting out the full task timeout.
  std::vector<TaskId> orphaned;
  for (const auto& [task, info] : in_flight_)
    if (info.server == server) orphaned.push_back(task);
  for (TaskId task : orphaned) {
    const QueryId query = in_flight_.at(task).query;
    in_flight_.erase(task);
    finish_task(query, /*missed=*/false, /*failed=*/true, finished);
  }
}

bool RemoteDispatcher::read_server(ServerId server,
                                   std::vector<FinishedQuery>* finished) {
  ServerConn& conn = servers_[server];
  if (!conn.in.fill(conn.fd.get())) return false;
  while (auto frame = conn.in.next()) handle_frame(server, *frame, finished);
  return conn.in.error().empty();
}

void RemoteDispatcher::handle_frame(ServerId server, const Frame& frame,
                                    std::vector<FinishedQuery>* finished) {
  ServerConn& conn = servers_[server];
  switch (frame.type) {
    case MsgType::kHelloAck: {
      HelloAckMsg ack;
      if (decode(frame, &ack) && ack.protocol_version == kWireVersion) {
        conn.state = ConnState::kAlive;
        conn.backoff_ms = options_.reconnect_initial_backoff_ms;
        alive_cv_.notify_all();
      }
      break;
    }
    case MsgType::kTaskDone: {
      TaskDoneMsg msg;
      if (!decode(frame, &msg)) break;
      // The observation is valid even when the task already timed out — the
      // server really took that long (online updating, §III.B.2).
      door_.control().observe_post_queuing_on(/*shard=*/0, server,
                                              msg.service_ms);
      const auto it = in_flight_.find(msg.task);
      if (it == in_flight_.end()) break;  // late reply after timeout/failover
      const QueryId query = it->second.query;
      if (conn.in_flight > 0) --conn.in_flight;
      in_flight_.erase(it);
      finish_task(query, msg.missed_deadline, /*failed=*/false, finished);
      break;
    }
    case MsgType::kGossipDelta: {
      GossipDeltaMsg msg;
      if (!decode(frame, &msg)) break;
      // Per-connection dedup: daemons share no origin namespace, so the
      // delta identity over the wire is (connection, seq). Duplicates are
      // dropped, never re-applied — increments stay exactly-once.
      if (msg.seq <= conn.last_gossip_seq) {
        ++gossip_duplicates_dropped_;
        break;
      }
      conn.last_gossip_seq = msg.seq;
      // The daemon doesn't know which ServerId this connection is on our
      // side; every entry rebinds to `server`. Samples are completions no
      // TaskDone brought us: other dispatchers' tasks, or, in a rejoin
      // backfill, tasks whose owner connection was gone. Our own answered
      // tasks never ride a delta, so each reaches this model once.
      for (const auto& entry : msg.servers) {
        for (double s : entry.samples_ms)
          door_.control().observe_post_queuing_on(/*shard=*/0, server, s);
        if (entry.has_load) conn.gossip_queue_depth = entry.load_estimate;
      }
      door_.control().absorb_remote_dequeues(/*shard=*/0, now_ms(),
                                             msg.dequeues_recorded,
                                             msg.dequeues_missed);
      ++gossip_deltas_absorbed_;
      break;
    }
    case MsgType::kStatsResponse: {
      StatsResponseMsg stats;
      if (decode(frame, &stats)) conn.stats = stats;
      break;
    }
    default:
      break;  // unknown types are skippable (versioned framing)
  }
}

void RemoteDispatcher::net_loop() {
  poller_.watch(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<Poller::Event> events;
  while (running_.load(std::memory_order_relaxed)) {
    std::vector<FinishedQuery> finished;
    double poll_timeout_ms = 200.0;
    {
      MutexLock lock(mu_);
      const TimeMs now = now_ms();
      expire_timeouts(now, &finished);
      for (std::size_t s = 0; s < servers_.size(); ++s) {
        ServerConn& conn = servers_[s];
        // Flush before waiting: frames callers queued while the loop ran,
        // the loop's own (Hello) and the tail of a blocked write. A send
        // that failed on a caller's thread is torn down here, where the fd
        // may be forgotten and closed.
        if (conn.fd.valid() && conn.state != ConnState::kConnecting &&
            (conn.send_failed ||
             (!conn.out.empty() && conn.out.flush(conn.fd.get()) ==
                                       SendQueue::FlushResult::kError)))
          disconnect(static_cast<ServerId>(s), now, &finished);
        if (conn.state == ConnState::kBackoff) {
          if (now >= conn.next_attempt_ms)
            start_connect(static_cast<ServerId>(s), now);
          if (conn.state == ConnState::kBackoff)
            poll_timeout_ms =
                std::min(poll_timeout_ms, conn.next_attempt_ms - now);
        }
        if (!conn.fd.valid()) continue;
        // Interest edges only: steady-state rounds re-assert the same
        // interest and cost no syscall (see Poller::watch).
        if (conn.state == ConnState::kConnecting)
          poller_.watch(conn.fd.get(), /*want_read=*/false,
                        /*want_write=*/true);
        else
          poller_.watch(conn.fd.get(), /*want_read=*/true,
                        /*want_write=*/!conn.out.empty());
      }
      if (!timeouts_.empty())
        poll_timeout_ms =
            std::min(poll_timeout_ms, timeouts_.front().first - now);
      waiting_until_ms_ = now + poll_timeout_ms;
    }
    resolve(std::move(finished));
    finished.clear();

    const int timeout_ms =
        std::max(1, static_cast<int>(poll_timeout_ms) + 1);
    events.clear();
    poller_.wait(events, timeout_ms);
    if (!running_.load(std::memory_order_relaxed)) break;

    {
      MutexLock lock(mu_);
      waiting_until_ms_.reset();
      const TimeMs now = now_ms();
      for (const Poller::Event& ev : events) {
        if (ev.fd == wake_.read_fd()) {
          wake_.drain();
          continue;
        }
        // Map the event back to its server; a connection torn down earlier
        // in this batch simply no longer matches.
        ServerConn* conn = nullptr;
        ServerId s = 0;
        for (std::size_t i = 0; i < servers_.size(); ++i) {
          if (servers_[i].fd.valid() && servers_[i].fd.get() == ev.fd) {
            conn = &servers_[i];
            s = static_cast<ServerId>(i);
            break;
          }
        }
        if (conn == nullptr) continue;
        if (conn->state == ConnState::kConnecting) {
          if (connect_finished(conn->fd.get())) {
            encode_into(HelloMsg{.peer_name = "tailguard-dispatcher"},
                        conn->out.chunk());
            conn->state = ConnState::kHandshaking;
          } else {
            disconnect(s, now, &finished);
          }
          continue;
        }
        bool ok = !ev.closed;
        if (ok && ev.readable) ok = read_server(s, &finished);
        if (!ok) disconnect(s, now, &finished);
      }
    }
    resolve(std::move(finished));
  }
}

}  // namespace tailguard::net
