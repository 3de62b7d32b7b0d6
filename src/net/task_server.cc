#include "net/task_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"

namespace tailguard::net {

namespace {

/// Cap on the samples one pending delta holds; later ones only count as
/// dropped. Bounds the orphan backfill and each connection's gossip alike.
constexpr std::size_t kMaxBufferedSamples = 4096;

/// A daemon's deltas hold one entry. The daemon does not know which of the
/// dispatcher's servers a connection reaches, so the entry's server id is a
/// placeholder and receivers rebind it per connection.
GossipDeltaMsg::ServerEntry& entry_of(GossipDeltaMsg& delta) {
  if (delta.servers.empty()) delta.servers.emplace_back();
  return delta.servers.front();
}

void add_sample(GossipDeltaMsg& delta, double sample_ms) {
  GossipDeltaMsg::ServerEntry& entry = entry_of(delta);
  if (entry.samples_ms.size() < kMaxBufferedSamples)
    entry.samples_ms.push_back(sample_ms);
  else
    ++entry.samples_dropped;
}

}  // namespace

TaskServer::TaskServer(TaskServerOptions options)
    : options_(std::move(options)), epoch_(std::chrono::steady_clock::now()) {
  TG_CHECK_MSG(options_.num_executors >= 1, "need at least one executor");
  TG_CHECK_MSG(options_.num_classes >= 1, "need at least one class");
  std::string error;
  listen_fd_ = listen_tcp(options_.port, &error);
  TG_CHECK_MSG(listen_fd_.valid(), "task server cannot listen: " << error);
  port_ = local_port(listen_fd_.get());
  next_gossip_ms_ = options_.gossip_interval_ms;

  const auto clock = [this] { return now_ms(); };
  const auto on_complete = [this](ServerId executor, const RuntimeTask& task,
                                  TimeMs dequeue_ms, TimeMs complete_ms) {
    on_task_complete(executor, task, dequeue_ms, complete_ms);
  };
  executors_.reserve(options_.num_executors);
  for (std::size_t i = 0; i < options_.num_executors; ++i)
    executors_.push_back(std::make_unique<Worker>(
        static_cast<ServerId>(i), options_.policy, options_.num_classes, clock,
        on_complete));
  net_thread_ = std::thread([this] { net_loop(); });
}

TaskServer::~TaskServer() { stop(); }

void TaskServer::stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Relaxed: plain shutdown latch. The net loop re-polls it every round,
  // the wake below forces a prompt round, and the join right after is the
  // real synchronization point — no data is published through this flag.
  running_.store(false, std::memory_order_relaxed);
  wake_.wake();
  if (net_thread_.joinable()) net_thread_.join();
  // Drain the executors: queued tasks still run; their completions land in
  // orphaned_ (every connection is gone by now).
  for (auto& e : executors_) e->shutdown();
  MutexLock lock(mu_);
  conns_.clear();
  fd_conn_.clear();
  listen_fd_.reset();
}

TimeMs TaskServer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t TaskServer::tasks_executed() const {
  MutexLock lock(mu_);
  return tasks_executed_;
}

std::uint64_t TaskServer::tasks_missed_deadline() const {
  MutexLock lock(mu_);
  return tasks_missed_;
}

std::size_t TaskServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& e : executors_) depth += e->queue_depth();
  return depth;
}

std::uint64_t TaskServer::gossip_deltas_sent() const {
  MutexLock lock(mu_);
  return gossip_deltas_sent_;
}

void TaskServer::accept_new_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again next poll
    set_nonblocking(fd);
    set_tcp_nodelay(fd);
    Connection conn;
    conn.fd.reset(fd);
    fd_conn_[fd] = next_conn_id_;
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

bool TaskServer::read_connection(std::uint64_t conn_id, Connection& conn) {
  if (!conn.in.fill(conn.fd.get())) return false;
  while (auto frame = conn.in.next()) handle_frame(conn_id, conn, *frame);
  return conn.in.error().empty();
}

void TaskServer::handle_frame(std::uint64_t conn_id, Connection& conn,
                              const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      HelloMsg hello;
      if (!decode(frame, &hello) || hello.protocol_version != kWireVersion) {
        conn.out.clear();   // hard error; swept (and the fd deregistered
        conn.dead = true;   // from the poller) at the end of this round
        return;
      }
      HelloAckMsg ack;
      ack.policy = static_cast<std::uint8_t>(options_.policy);
      ack.num_executors = static_cast<std::uint32_t>(options_.num_executors);
      encode_into(ack, conn.out.chunk());
      // Rejoin backfill: completions whose owner connection was gone leave
      // as this connection's first delta, whatever the gossip period.
      // Samples only: no dequeue counts, and no load gauge, which with
      // gossip off nothing would ever refresh.
      if (!orphaned_.empty()) send_delta(conn, orphaned_);
      conn.hello_done = true;
      break;
    }
    case MsgType::kSubmitTask: {
      SubmitTaskMsg msg;
      if (!decode(frame, &msg)) return;
      const TimeMs now = now_ms();
      RuntimeTask task;
      task.id = msg.task;
      task.query = msg.query;
      task.cls = msg.cls >= options_.num_classes
                     ? static_cast<ClassId>(options_.num_classes - 1)
                     : msg.cls;
      task.simulated_service_ms = msg.simulated_service_ms;
      task_origin_[msg.task] = {conn_id, now};
      submissions_.push_back(
          {std::move(task), now, now + msg.relative_deadline_ms});
      break;
    }
    case MsgType::kStatsRequest: {
      StatsResponseMsg stats;
      stats.queue_depth = static_cast<std::uint32_t>(queue_depth());
      stats.tasks_executed = tasks_executed_;
      stats.tasks_missed_deadline = tasks_missed_;
      encode_into(stats, conn.out.chunk());
      break;
    }
    default:
      // Unknown/unexpected types are skippable by design (versioned framing).
      break;
  }
}

void TaskServer::on_task_complete(ServerId executor,
                                  const RuntimeTask& task, TimeMs dequeue_ms,
                                  TimeMs complete_ms) {
  const bool missed = dequeue_ms > task.order_deadline;
  TaskDoneMsg msg;
  msg.task = task.id;
  msg.query = task.query;
  msg.service_ms = complete_ms - dequeue_ms;
  msg.missed_deadline = missed;

  MutexLock lock(mu_);
  ++tasks_executed_;
  if (missed) ++tasks_missed_;
  const auto origin_it = task_origin_.find(task.id);
  TaskOrigin origin;
  if (origin_it != task_origin_.end()) {
    origin = origin_it->second;
    task_origin_.erase(origin_it);
  }
  msg.queue_ms = dequeue_ms - origin.enqueue_ms;
  const auto conn_it = conns_.find(origin.conn);
  if (!stopped_ && conn_it != conns_.end() && conn_it->second.hello_done &&
      !conn_it->second.dead && conn_it->second.fd.valid()) {
    // A running net loop flushes every queue before it waits, so executors
    // only act while it waits, and only on a queue they found empty (one
    // that was not holds a blocked tail, which the loop sends on EPOLLOUT).
    // An executor with nothing else queued sends now; one with a backlog
    // leaves the frame for the loop's next flush, batched with the
    // completions that follow it.
    Connection& conn = conn_it->second;
    const bool was_empty = conn.out.empty();
    encode_into(msg, conn.out.chunk());
    if (waiting_ && was_empty &&
        (executors_[executor]->queue_depth() > 0 || send_now(conn)))
      wake_.wake();
  } else {
    // No dispatcher to tell: the next connection's backfill carries it.
    add_sample(orphaned_, msg.service_ms);
  }
  if (options_.gossip_interval_ms > 0) {
    // Every OTHER dispatcher learns of this completion via the next
    // GossipDelta. The owning connection just got the TaskDone above —
    // skipping it keeps each observation exactly-once per dispatcher.
    for (auto& [id, other] : conns_) {
      if (id == origin.conn || !other.hello_done || other.dead) continue;
      add_sample(other.gossip, msg.service_ms);
      ++other.gossip.dequeues_recorded;
      if (missed) ++other.gossip.dequeues_missed;
    }
  }
}

bool TaskServer::send_now(Connection& conn) {
  switch (conn.out.flush(conn.fd.get())) {
    case SendQueue::FlushResult::kDrained:
      return false;
    case SendQueue::FlushResult::kBlocked:
      return true;  // the loop arms EPOLLOUT and finishes the send
    case SendQueue::FlushResult::kError:
      // Only the net thread may forget and close the fd.
      conn.dead = true;
      return true;
  }
  return true;
}

void TaskServer::maybe_gossip(TimeMs now) {
  if (options_.gossip_interval_ms <= 0 || now < next_gossip_ms_) return;
  const std::uint32_t depth = static_cast<std::uint32_t>(queue_depth());
  for (auto& [id, conn] : conns_) {
    if (!conn.hello_done || conn.dead || !conn.fd.valid()) continue;
    GossipDeltaMsg::ServerEntry& entry = entry_of(conn.gossip);
    entry.load_estimate = depth;
    entry.has_load = true;
    send_delta(conn, conn.gossip);
  }
  // Wall-clock re-arm (the daemon is not simulated): next boundary from now,
  // so a long idle stretch costs one round, not a backlog of empty ones.
  next_gossip_ms_ = now + options_.gossip_interval_ms;
}

void TaskServer::send_delta(Connection& conn, GossipDeltaMsg& delta) {
  delta.seq = next_gossip_seq_++;
  encode_into(std::exchange(delta, {}), conn.out.chunk());
  ++gossip_deltas_sent_;
}

void TaskServer::flush_and_sweep_connections() {
  // Runs once per loop round, just before the wait: flush what was queued
  // while the loop ran (TaskDone frames from executors, handshake replies,
  // stats, gossip) and the tail of a write that blocked, then close dead
  // connections and refresh poller interest for the rest.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = it->second;
    if (!conn.dead && conn.fd.valid() && !conn.out.empty() &&
        conn.out.flush(conn.fd.get()) == SendQueue::FlushResult::kError)
      conn.dead = true;
    if (conn.dead || !conn.fd.valid()) {
      if (conn.fd.valid()) {
        poller_.forget(conn.fd.get());
        fd_conn_.erase(conn.fd.get());
      }
      it = conns_.erase(it);
    } else {
      poller_.watch(conn.fd.get(), /*want_read=*/true,
                    /*want_write=*/!conn.out.empty());
      ++it;
    }
  }
}

void TaskServer::net_loop() {
  poller_.watch(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
  poller_.watch(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false);
  std::vector<Poller::Event> events;
  std::vector<Submission> submissions;
  while (running_.load(std::memory_order_relaxed)) {
    int timeout_ms = 200;
    {
      MutexLock lock(mu_);
      flush_and_sweep_connections();
      if (options_.gossip_interval_ms > 0) {
        // Wake in time for the next gossip boundary instead of sleeping
        // through it (while keeping the 200 ms liveness ceiling).
        const double until = next_gossip_ms_ - now_ms();
        timeout_ms = std::clamp(static_cast<int>(until) + 1, 1, 200);
      }
      waiting_ = true;
    }
    events.clear();
    poller_.wait(events, timeout_ms);
    if (!running_.load(std::memory_order_relaxed)) break;

    {
      MutexLock lock(mu_);
      waiting_ = false;
      bool accept_ready = false;
      for (const Poller::Event& ev : events) {
        if (ev.fd == wake_.read_fd()) {
          wake_.drain();
          continue;
        }
        if (ev.fd == listen_fd_.get()) {
          accept_ready = true;
          continue;
        }
        const auto id_it = fd_conn_.find(ev.fd);
        if (id_it == fd_conn_.end()) continue;  // closed earlier this round
        const auto it = conns_.find(id_it->second);
        if (it == conns_.end()) continue;
        Connection& conn = it->second;
        if (ev.closed) conn.dead = true;
        if (!conn.dead && ev.readable &&
            !read_connection(id_it->second, conn))
          conn.dead = true;
      }
      // Accept after the connection events and before the sweep:
      // descriptors are only ever closed inside the sweep, so an accepted fd
      // can never alias a stale event in this batch, and the sweep (before
      // the next wait) registers the new connections' read interest.
      if (accept_ready) accept_new_connections();
      maybe_gossip(now_ms());
      submissions.swap(submissions_);
    }
    // Executors get this round's tasks only with mu_ released: a burst that
    // fills an executor's ring then stalls this thread alone, never an
    // executor waiting for mu_ to report a completion.
    for (Submission& sub : submissions) {
      // Route to the least-backlogged executor.
      Worker* target = executors_.front().get();
      for (const auto& e : executors_)
        if (e->queue_depth() < target->queue_depth()) target = e.get();
      target->submit(std::move(sub.task), sub.enqueue_ms, sub.order_deadline);
    }
    submissions.clear();
  }
}

}  // namespace tailguard::net
