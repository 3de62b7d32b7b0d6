#include "replay.h"

#include <algorithm>
#include <deque>

#include "core/policy.h"
#include "net/wire.h"

namespace tailguard::e2e {

namespace {

/// Calls are timed in batches of this many queries: one timer pair per
/// family per batch.
constexpr std::size_t kBatch = 64;

struct Family {
  const char* name;
  bool core = false;  ///< counted in core.replay_share_pct
  std::uint64_t calls = 0;
  double total_ns = 0.0;

  void add(std::size_t n, std::int64_t start_ns) {
    calls += n;
    total_ns += static_cast<double>(now_ns() - start_ns);
  }
  double per_call_ns() const {
    return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls);
  }
};

struct LiveQuery {
  QueryId id = 0;
  ClassId cls = 0;
  TimeMs tail_deadline = 0.0;
  std::vector<ServerId> servers;
};

struct Completion {
  QueryId id = 0;
  ClassId cls = 0;
  ServerId server = 0;
  bool missed = false;
  TimeMs post_ms = 0.0;
};

/// Reassembles every frame in `bytes` and decodes it as `Msg`; returns false
/// when a frame does not decode.
template <typename Msg>
bool read_frames(const std::vector<std::uint8_t>& bytes,
                 net::FrameBuffer& buffer, std::vector<net::Frame>& frames,
                 Family& reassembly, Family& decode) {
  frames.clear();
  std::int64_t t = now_ns();
  buffer.append(bytes.data(), bytes.size());
  while (auto frame = buffer.next()) frames.push_back(std::move(*frame));
  reassembly.add(frames.size(), t);

  bool ok = true;
  t = now_ns();
  for (const net::Frame& frame : frames) {
    Msg msg;
    ok &= net::decode(frame, &msg);
  }
  decode.add(frames.size(), t);
  return ok;
}

}  // namespace

void replay_layers(ReplaySetup setup, Report& report, TraceLog* trace) {
  const std::size_t num_servers = setup.models.size();
  const Policy policy = setup.control.policy;
  const std::size_t num_classes = setup.control.classes.size();
  ShardedControlPlane control(setup.sharding, setup.control, setup.models);
  control.reserve_queries(setup.queries.size() / control.num_shards() + 1,
                          setup.in_flight + kBatch);

  std::vector<std::unique_ptr<TaskQueue>> queues;
  for (std::size_t s = 0; s < num_servers; ++s)
    queues.push_back(make_task_queue(policy, num_classes));
  std::vector<std::uint32_t> depth(num_servers, 0);
  Rng rng(setup.seed);

  Family sync{"shard.maybe_sync_ns"};
  Family admit{"core.admit_ns", true};
  Family place{"core.place_ns", true};
  Family begin{"core.begin_query_ns", true};
  Family push{"core.queue_push_ns", true};
  Family pop{"core.queue_pop_ns", true};
  Family dequeue{"core.record_dequeue_ns", true};
  Family observe{"core.observe_ns", true};
  Family complete{"core.complete_ns", true};
  Family sample{"dist.service_sample_ns"};
  Family encode{"net.wire_encode_ns"};
  Family decode{"net.wire_decode_ns"};
  Family reassembly{"net.frame_reassembly_ns"};

  std::vector<std::uint32_t> shard(kBatch);
  std::vector<double> coin(kBatch);
  std::vector<std::uint8_t> admitted(kBatch);
  std::vector<std::vector<PlacementCandidate>> candidates(kBatch);
  std::vector<std::vector<ServerId>> placed(kBatch);
  std::vector<QueryPlan> plans(kBatch);
  std::vector<QueuedTask> tasks;
  std::vector<ServerId> task_server;
  std::vector<Completion> done;
  std::deque<LiveQuery> live;
  std::vector<std::uint8_t> bytes;
  std::vector<net::Frame> frames;
  net::FrameBuffer wire_in;
  bool wire_ok = true;

  const std::size_t n = setup.queries.size();
  for (std::size_t base = 0; base < n; base += kBatch) {
    const std::size_t m = std::min(kBatch, n - base);
    const ReplayQuery* q = &setup.queries[base];

    std::int64_t t = now_ns();
    for (std::size_t i = 0; i < m; ++i) control.maybe_sync(q[i].t_ms);
    sync.add(m, t);

    for (std::size_t i = 0; i < m; ++i) {
      shard[i] = control.route(base + i, q[i].cls);
      coin[i] = rng.uniform();
    }
    t = now_ns();
    for (std::size_t i = 0; i < m; ++i) {
      admitted[i] = control.should_admit(shard[i], q[i].t_ms, coin[i]);
      if (admitted[i] != 0) control.count_admitted(shard[i]);
      else control.count_rejected(shard[i]);
    }
    admit.add(m, t);

    // The backend builds the candidate view; only place() is timed.
    std::size_t placed_queries = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (admitted[i] == 0) continue;
      ++placed_queries;
      candidates[i].clear();
      for (std::size_t s = 0; s < num_servers; ++s)
        candidates[i].emplace_back(depth[s], static_cast<ServerId>(s));
    }
    t = now_ns();
    for (std::size_t i = 0; i < m; ++i) {
      if (admitted[i] == 0) continue;
      placed[i] = control.place(shard[i], std::move(candidates[i]),
                                q[i].fanout, q[i].cls, q[i].t_ms);
    }
    place.add(placed_queries, t);

    t = now_ns();
    for (std::size_t i = 0; i < m; ++i) {
      if (admitted[i] == 0) continue;
      plans[i] = control.begin_query(shard[i], q[i].t_ms, q[i].cls, placed[i]);
    }
    begin.add(placed_queries, t);

    tasks.clear();
    task_server.clear();
    for (std::size_t i = 0; i < m; ++i) {
      if (admitted[i] == 0) continue;
      for (const ServerId s : placed[i]) {
        QueuedTask task;
        task.task = tasks.size();
        task.query = plans[i].id;
        task.cls = q[i].cls;
        task.enqueue_time = q[i].t_ms;
        task.deadline = plans[i].order_deadline;
        tasks.push_back(task);
        task_server.push_back(s);
      }
      live.push_back(LiveQuery{plans[i].id, q[i].cls, plans[i].tail_deadline,
                               placed[i]});
    }
    t = now_ns();
    for (std::size_t k = 0; k < tasks.size(); ++k)
      queues[task_server[k]]->push(tasks[k]);
    push.add(tasks.size(), t);
    for (const ServerId s : task_server) ++depth[s];

    bytes.clear();
    t = now_ns();
    for (const QueuedTask& task : tasks) {
      net::encode_into(
          net::SubmitTaskMsg{task.task, task.query, task.cls,
                             task.deadline - task.enqueue_time, 0.0},
          bytes);
    }
    encode.add(tasks.size(), t);
    wire_ok &= read_frames<net::SubmitTaskMsg>(bytes, wire_in, frames,
                                               reassembly, decode);

    // Complete the oldest queries down to the in-flight target, at the
    // batch's last arrival time.
    const TimeMs now = q[m - 1].t_ms;
    done.clear();
    while (live.size() > setup.in_flight) {
      const LiveQuery& lq = live.front();
      for (const ServerId s : lq.servers)
        done.push_back(Completion{lq.id, lq.cls, s, now > lq.tail_deadline});
      live.pop_front();
    }
    t = now_ns();
    for (Completion& c : done) c.post_ms = setup.service[c.server]->sample(rng);
    sample.add(done.size(), t);
    t = now_ns();
    for (const Completion& c : done) queues[c.server]->pop();
    pop.add(done.size(), t);
    for (const Completion& c : done) --depth[c.server];
    t = now_ns();
    for (const Completion& c : done)
      control.record_task_dequeue(c.id, now, c.cls, c.missed);
    dequeue.add(done.size(), t);
    t = now_ns();
    for (const Completion& c : done)
      control.observe_post_queuing(c.id, c.server, c.post_ms);
    observe.add(done.size(), t);
    t = now_ns();
    for (const Completion& c : done) control.complete_task(c.id);
    complete.add(done.size(), t);

    bytes.clear();
    t = now_ns();
    for (const Completion& c : done) {
      net::encode_into(
          net::TaskDoneMsg{c.id, c.id, 0.0, c.post_ms, c.missed}, bytes);
    }
    encode.add(done.size(), t);
    wire_ok &= read_frames<net::TaskDoneMsg>(bytes, wire_in, frames,
                                             reassembly, decode);
  }
  if (!wire_ok) report.fail("replay: a wire frame did not decode");

  double core_ns = 0.0;
  for (const Family* f : {&sync, &admit, &place, &begin, &push, &pop, &dequeue,
                          &observe, &complete, &sample, &encode, &decode,
                          &reassembly}) {
    report.metric(f->name, f->per_call_ns(), "ns");
    if (f->core && (f != &place || setup.placement_on_path))
      core_ns += f->total_ns;
    if (trace != nullptr) trace->aggregate(f->name, f->calls, f->total_ns);
  }
  const PlacementStats stats = control.placement_stats();
  report.metric("core.place_candidates_per_decision",
                stats.decisions == 0
                    ? 0.0
                    : static_cast<double>(stats.candidates_considered) /
                          static_cast<double>(stats.decisions),
                "count");
  const double core_ns_per_query =
      n == 0 ? 0.0 : core_ns / static_cast<double>(n);
  report.metric("core.replay_share_pct",
                setup.path_ns_per_query > 0.0
                    ? 100.0 * core_ns_per_query / setup.path_ns_per_query
                    : 0.0,
                "%");
  const ShardedControlPlane::SyncStats& sync_stats = control.sync_stats();
  const double kqueries = static_cast<double>(n) / 1000.0;
  report.metric("shard.sync_rounds_per_kquery",
                static_cast<double>(sync_stats.rounds) / kqueries, "count");
  report.metric("shard.samples_shipped_per_kquery",
                static_cast<double>(sync_stats.samples_shipped) / kqueries,
                "count");
}

}  // namespace tailguard::e2e
