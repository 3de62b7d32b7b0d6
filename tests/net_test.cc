// Tests for the networked runtime: wire serde round-trips, frame
// reassembly, the task-server daemon, and the remote dispatcher — including
// the loopback end-to-end comparison against the in-process runtime and the
// kill-a-daemon graceful-degradation path.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/dispatcher.h"
#include "net/poller.h"
#include "net/send_queue.h"
#include "net/socket.h"
#include "net/task_server.h"
#include "net/wire.h"
#include "runtime/service.h"

namespace tailguard {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------- wire

TEST(Wire, HelloRoundTrip) {
  net::HelloMsg msg;
  msg.peer_name = "dispatcher-7";
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, net::MsgType::kHello);
  net::HelloMsg decoded;
  ASSERT_TRUE(net::decode(*frame, &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(Wire, HelloAckRoundTrip) {
  net::HelloAckMsg msg;
  msg.policy = static_cast<std::uint8_t>(Policy::kTfEdf);
  msg.num_executors = 3;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::HelloAckMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(Wire, SubmitTaskRoundTrip) {
  net::SubmitTaskMsg msg;
  msg.task = 0x1234567890abcdefULL;
  msg.query = 42;
  msg.cls = 1;
  msg.relative_deadline_ms = -3.75;  // already-late tasks have negative budget
  msg.simulated_service_ms = 2.5;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::SubmitTaskMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(Wire, TaskDoneRoundTrip) {
  net::TaskDoneMsg msg;
  msg.task = 7;
  msg.query = 9;
  msg.queue_ms = 1.25;
  msg.service_ms = 4.5;
  msg.missed_deadline = true;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::TaskDoneMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(Wire, ModelSyncRoundTrip) {
  net::ModelSyncMsg msg;
  msg.samples_ms = {0.5, 1.0, 2.75, 100.0};
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::ModelSyncMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(Wire, StatsRoundTrip) {
  net::StatsResponseMsg msg;
  msg.queue_depth = 12;
  msg.tasks_executed = 3400;
  msg.tasks_missed_deadline = 17;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::StatsResponseMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);

  const auto req = net::encode(net::StatsRequestMsg{});
  net::FrameBuffer buf2;
  buf2.append(req.data(), req.size());
  net::StatsRequestMsg request;
  ASSERT_TRUE(net::decode(*buf2.next(), &request));
}

TEST(Wire, FrameBufferReassemblesByteByByte) {
  net::SubmitTaskMsg msg;
  msg.task = 99;
  msg.simulated_service_ms = 1.5;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i + 1 < bytes.size()) {
      EXPECT_FALSE(buf.next().has_value());
    }
    buf.append(&bytes[i], 1);
  }
  net::SubmitTaskMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_TRUE(buf.error().empty());
}

TEST(Wire, FrameBufferHandlesBackToBackFrames) {
  const auto a = net::encode(net::TaskDoneMsg{.task = 1});
  const auto b = net::encode(net::TaskDoneMsg{.task = 2});
  std::vector<std::uint8_t> stream(a);
  stream.insert(stream.end(), b.begin(), b.end());
  net::FrameBuffer buf;
  buf.append(stream.data(), stream.size());
  net::TaskDoneMsg first, second;
  ASSERT_TRUE(net::decode(*buf.next(), &first));
  ASSERT_TRUE(net::decode(*buf.next(), &second));
  EXPECT_EQ(first.task, 1u);
  EXPECT_EQ(second.task, 2u);
}

TEST(Wire, FrameBufferRejectsBadMagic) {
  std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef,
                                    0x00, 0x00, 0x00, 0x00};
  net::FrameBuffer buf;
  buf.append(junk.data(), junk.size());
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_FALSE(buf.error().empty());
}

TEST(Wire, FrameBufferRejectsVersionMismatch) {
  auto bytes = net::encode(net::HelloMsg{});
  bytes[2] = net::kWireVersion + 1;
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_NE(buf.error().find("version"), std::string::npos);
}

TEST(Wire, FrameBufferRejectsOversizedPayload) {
  auto bytes = net::encode(net::HelloMsg{});
  // Rewrite the length field to something absurd.
  const std::uint32_t huge = 1u << 30;
  for (int i = 0; i < 4; ++i)
    bytes[4 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_FALSE(buf.error().empty());
}

TEST(Wire, DecodeRejectsTruncatedPayload) {
  const auto bytes = net::encode(net::SubmitTaskMsg{});
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  auto frame = *buf.next();
  frame.payload.pop_back();
  net::SubmitTaskMsg decoded;
  EXPECT_FALSE(net::decode(frame, &decoded));
}

TEST(Wire, DecodeRejectsTrailingGarbage) {
  const auto bytes = net::encode(net::TaskDoneMsg{});
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  auto frame = *buf.next();
  frame.payload.push_back(0x00);
  net::TaskDoneMsg decoded;
  EXPECT_FALSE(net::decode(frame, &decoded));
}

TEST(Wire, UnknownMessageTypeIsSkippable) {
  auto bytes = net::encode(net::HelloMsg{});
  bytes[3] = 0x7f;  // a type this version has never heard of
  const auto follow = net::encode(net::TaskDoneMsg{.task = 5});
  bytes.insert(bytes.end(), follow.begin(), follow.end());
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  const auto unknown = buf.next();
  ASSERT_TRUE(unknown.has_value());  // delivered, caller decides to ignore
  net::TaskDoneMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded.task, 5u);
}

TEST(Wire, EncodeIntoCoalescesFramesIntoOneBuffer) {
  // The batching primitive: many frames appended to the same buffer must
  // byte-match the concatenation of their individual encode() results and
  // parse back in order — this is exactly what a SendQueue chunk holds.
  std::vector<std::uint8_t> batch;
  net::SubmitTaskMsg submit{.task = 7, .query = 3, .cls = 1,
                            .relative_deadline_ms = 12.5,
                            .simulated_service_ms = 0.25};
  net::TaskDoneMsg done{.task = 7, .query = 3, .queue_ms = 1.5,
                        .service_ms = 0.5, .missed_deadline = true};
  net::HelloMsg hello{.peer_name = "batcher"};
  net::encode_into(hello, batch);
  net::encode_into(submit, batch);
  net::encode_into(done, batch);

  std::vector<std::uint8_t> concat = net::encode(hello);
  const auto submit_bytes = net::encode(submit);
  const auto done_bytes = net::encode(done);
  concat.insert(concat.end(), submit_bytes.begin(), submit_bytes.end());
  concat.insert(concat.end(), done_bytes.begin(), done_bytes.end());
  EXPECT_EQ(batch, concat);

  net::FrameBuffer buf;
  buf.append(batch.data(), batch.size());
  net::HelloMsg hello_rt;
  net::SubmitTaskMsg submit_rt;
  net::TaskDoneMsg done_rt;
  ASSERT_TRUE(net::decode(*buf.next(), &hello_rt));
  ASSERT_TRUE(net::decode(*buf.next(), &submit_rt));
  ASSERT_TRUE(net::decode(*buf.next(), &done_rt));
  EXPECT_EQ(hello_rt, hello);
  EXPECT_EQ(submit_rt, submit);
  EXPECT_EQ(done_rt, done);
  EXPECT_FALSE(buf.next().has_value());
}

TEST(Wire, EncodeIntoEmptyPayloadFrame) {
  std::vector<std::uint8_t> out;
  net::encode_into(net::StatsRequestMsg{}, out);
  EXPECT_EQ(out.size(), net::kFrameHeaderBytes);
  net::FrameBuffer buf;
  buf.append(out.data(), out.size());
  net::StatsRequestMsg req;
  ASSERT_TRUE(net::decode(*buf.next(), &req));
}

// ----------------------------------------------------- poller & send queue

TEST(Poller, ReportsReadWriteAndHangup) {
  net::Poller poller;

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::ScopedFd a(sv[0]), b(sv[1]);
  net::set_nonblocking(a.get());

  // Read interest, nothing to read: timeout.
  poller.watch(a.get(), /*want_read=*/true, /*want_write=*/false);
  std::vector<net::Poller::Event> events;
  EXPECT_EQ(poller.wait(events, 0), 0);
  EXPECT_TRUE(events.empty());

  // Peer writes: readable, and not writable (no write interest).
  const std::uint8_t byte = 0x42;
  ASSERT_EQ(::send(b.get(), &byte, 1, MSG_NOSIGNAL), 1);
  events.clear();
  ASSERT_GE(poller.wait(events, 1000), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, a.get());
  EXPECT_TRUE(events[0].readable);
  EXPECT_FALSE(events[0].writable);

  // Adding write interest on an idle socket: writable immediately.
  poller.watch(a.get(), /*want_read=*/true, /*want_write=*/true);
  events.clear();
  ASSERT_GE(poller.wait(events, 1000), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].writable);

  // Peer closes: hangup-class condition reported.
  b.reset();
  events.clear();
  ASSERT_GE(poller.wait(events, 1000), 1);
  EXPECT_TRUE(events[0].closed || events[0].readable);  // EOF shows as either

  // After forget(), the fd produces no more events.
  poller.forget(a.get());
  events.clear();
  EXPECT_EQ(poller.wait(events, 0), 0);
}

TEST(Poller, WatchOnClosedDescriptorThrows) {
  // A failed epoll_ctl would leave the descriptor silently unwatched, so
  // its connection would never report readiness: watch() must say so.
  net::Poller poller;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ::close(fd);
  EXPECT_THROW(poller.watch(fd, /*want_read=*/true, /*want_write=*/false),
               CheckFailure);
}

TEST(SendQueue, CoalescesFramesAndFlushesInOneBatch) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::ScopedFd tx(sv[0]), rx(sv[1]);
  net::set_nonblocking(tx.get());

  net::SendQueue q;
  EXPECT_TRUE(q.empty());
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    net::TaskDoneMsg msg;
    msg.task = static_cast<TaskId>(i);
    msg.queue_ms = 0.5 * i;
    net::encode_into(msg, q.chunk());
  }
  EXPECT_FALSE(q.empty());
  const std::size_t pending = q.bytes_pending();
  EXPECT_GT(pending, 0u);

  // Flush everything while a reader drains the other end: every frame must
  // arrive intact and in order, regardless of how sends were batched.
  net::FrameBuffer in;
  int seen = 0;
  for (int spin = 0; spin < 100000 && seen < kFrames; ++spin) {
    const auto result = q.flush(tx.get());
    ASSERT_NE(result, net::SendQueue::FlushResult::kError);
    std::uint8_t buf[16 * 1024];
    const ssize_t n = ::recv(rx.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) in.append(buf, static_cast<std::size_t>(n));
    while (auto frame = in.next()) {
      net::TaskDoneMsg msg;
      ASSERT_TRUE(net::decode(*frame, &msg));
      ASSERT_EQ(msg.task, static_cast<TaskId>(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, kFrames);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes_pending(), 0u);
}

TEST(SendQueue, BlockedFlushResumesWhereItStopped) {
  // A tiny send buffer forces the partial-write path: flush() must report
  // kBlocked, keep its position, and deliver a byte-perfect stream once the
  // reader catches up.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::ScopedFd tx(sv[0]), rx(sv[1]);
  net::set_nonblocking(tx.get());
  const int tiny = 4096;
  ::setsockopt(tx.get(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));

  net::SendQueue q;
  net::ModelSyncMsg big;
  big.samples_ms.resize(20000, 1.25);  // ~160 KB frame, far beyond SO_SNDBUF
  net::encode_into(big, q.chunk());
  const std::size_t total = q.bytes_pending();

  bool saw_blocked = false;
  net::FrameBuffer in;
  std::optional<net::Frame> frame;
  for (int spin = 0; spin < 100000 && !frame; ++spin) {
    const auto result = q.flush(tx.get());
    ASSERT_NE(result, net::SendQueue::FlushResult::kError);
    saw_blocked |= result == net::SendQueue::FlushResult::kBlocked;
    std::uint8_t buf[8 * 1024];
    const ssize_t n = ::recv(rx.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) in.append(buf, static_cast<std::size_t>(n));
    frame = in.next();
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(saw_blocked) << "SO_SNDBUF=" << tiny << " never backpressured a "
                           << total << "-byte frame";
  net::ModelSyncMsg rt;
  ASSERT_TRUE(net::decode(*frame, &rt));
  EXPECT_EQ(rt, big);
  EXPECT_TRUE(q.empty());
}

TEST(SendQueue, ClearDropsPendingData) {
  net::SendQueue q;
  net::encode_into(net::HelloMsg{.peer_name = "x"}, q.chunk());
  EXPECT_FALSE(q.empty());
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes_pending(), 0u);
}

// ------------------------------------------------------- raw-socket client

/// Minimal blocking-ish wire client for poking a TaskServer directly, or
/// (via adopt) for playing a daemon to a RemoteDispatcher.
class TestClient {
 public:
  bool connect_to(std::uint16_t port) {
    std::string error;
    fd_ = net::connect_tcp("127.0.0.1", port, &error);
    if (!fd_.valid()) return false;
    pollfd p{fd_.get(), POLLOUT, 0};
    ::poll(&p, 1, 2000);
    return net::connect_finished(fd_.get());
  }

  /// Takes over an accepted connection.
  void adopt(net::ScopedFd fd) {
    fd_ = std::move(fd);
    net::set_nonblocking(fd_.get());
  }

  /// Caps the receive buffer (and so the peer's window); returns the size
  /// the kernel actually granted. Keep it well above the loopback MSS
  /// (64 KB): a smaller window stalls the sender on zero-window probes.
  std::size_t limit_receive_buffer(int bytes) {
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    int granted = 0;
    socklen_t len = sizeof(granted);
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_RCVBUF, &granted, &len);
    return static_cast<std::size_t>(granted);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd_.get(), POLLOUT, 0};
        ::poll(&p, 1, 1000);
      } else {
        return;
      }
    }
  }

  std::optional<net::Frame> read_frame(int timeout_ms = 3000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (auto frame = in_.next()) return frame;
      if (std::chrono::steady_clock::now() > deadline) return std::nullopt;
      pollfd p{fd_.get(), POLLIN, 0};
      ::poll(&p, 1, 50);
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
      if (n > 0) in_.append(buf, static_cast<std::size_t>(n));
    }
  }

  void close() { fd_.reset(); }

 private:
  net::ScopedFd fd_;
  net::FrameBuffer in_;
};

// ------------------------------------------------------------ task server

TEST(TaskServer, HandshakeAndSubmitOverRawSocket) {
  net::TaskServerOptions options;
  options.policy = Policy::kTfEdf;
  options.num_classes = 2;
  net::TaskServer server(options);
  ASSERT_GT(server.port(), 0);

  TestClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  client.send_bytes(net::encode(net::HelloMsg{.peer_name = "test"}));
  const auto ack_frame = client.read_frame();
  ASSERT_TRUE(ack_frame.has_value());
  net::HelloAckMsg ack;
  ASSERT_TRUE(net::decode(*ack_frame, &ack));
  EXPECT_EQ(ack.protocol_version, net::kWireVersion);
  EXPECT_EQ(ack.num_executors, 1u);
  EXPECT_EQ(static_cast<Policy>(ack.policy), Policy::kTfEdf);

  net::SubmitTaskMsg submit;
  submit.task = 1;
  submit.query = 1;
  submit.cls = 0;
  submit.relative_deadline_ms = 100.0;
  submit.simulated_service_ms = 0.5;
  client.send_bytes(net::encode(submit));
  const auto done_frame = client.read_frame();
  ASSERT_TRUE(done_frame.has_value());
  net::TaskDoneMsg done;
  ASSERT_TRUE(net::decode(*done_frame, &done));
  EXPECT_EQ(done.task, 1u);
  EXPECT_EQ(done.query, 1u);
  EXPECT_GE(done.service_ms, 0.4);
  EXPECT_FALSE(done.missed_deadline);
  EXPECT_EQ(server.tasks_executed(), 1u);
}

TEST(TaskServer, AnswersStatsRequest) {
  net::TaskServer server(net::TaskServerOptions{});
  TestClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  client.send_bytes(net::encode(net::HelloMsg{}));
  ASSERT_TRUE(client.read_frame().has_value());  // ack
  client.send_bytes(net::encode(net::StatsRequestMsg{}));
  const auto frame = client.read_frame();
  ASSERT_TRUE(frame.has_value());
  net::StatsResponseMsg stats;
  ASSERT_TRUE(net::decode(*frame, &stats));
  EXPECT_EQ(stats.tasks_executed, 0u);
}

TEST(TaskServer, BuffersSamplesForModelSyncAcrossReconnect) {
  net::TaskServer server(net::TaskServerOptions{});
  {
    TestClient first;
    ASSERT_TRUE(first.connect_to(server.port()));
    first.send_bytes(net::encode(net::HelloMsg{}));
    ASSERT_TRUE(first.read_frame().has_value());  // ack
    net::SubmitTaskMsg submit;
    submit.task = 1;
    submit.relative_deadline_ms = 1000.0;
    submit.simulated_service_ms = 30.0;
    first.send_bytes(net::encode(submit));
    std::this_thread::sleep_for(5ms);  // let the submit land, not finish
    first.close();
  }
  // The task completes with nobody connected; its sample must be buffered.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (server.tasks_executed() < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  ASSERT_EQ(server.tasks_executed(), 1u);

  TestClient second;
  ASSERT_TRUE(second.connect_to(server.port()));
  second.send_bytes(net::encode(net::HelloMsg{}));
  ASSERT_TRUE(second.read_frame().has_value());  // ack
  const auto sync_frame = second.read_frame();
  ASSERT_TRUE(sync_frame.has_value());
  net::ModelSyncMsg sync;
  ASSERT_TRUE(net::decode(*sync_frame, &sync));
  ASSERT_EQ(sync.samples_ms.size(), 1u);
  EXPECT_GE(sync.samples_ms[0], 25.0);
}

// ------------------------------------------------------- dispatcher + e2e

std::vector<std::unique_ptr<net::TaskServer>> start_fleet(
    std::size_t n, Policy policy, std::size_t num_classes) {
  std::vector<std::unique_ptr<net::TaskServer>> fleet;
  for (std::size_t i = 0; i < n; ++i) {
    net::TaskServerOptions options;
    options.policy = policy;
    options.num_classes = num_classes;
    fleet.push_back(std::make_unique<net::TaskServer>(options));
  }
  return fleet;
}

net::DispatcherOptions dispatcher_options(
    const std::vector<std::unique_ptr<net::TaskServer>>& fleet, Policy policy,
    std::vector<ClassSpec> classes) {
  net::DispatcherOptions options;
  for (const auto& server : fleet)
    options.servers.push_back({"127.0.0.1", server->port()});
  options.policy = policy;
  options.classes = std::move(classes);
  return options;
}

TEST(RemoteDispatcher, SubmitsAndCompletesQueries) {
  auto fleet = start_fleet(2, Policy::kTfEdf, 2);
  net::RemoteDispatcher dispatcher(dispatcher_options(
      fleet, Policy::kTfEdf,
      {{.slo_ms = 100.0, .percentile = 99.0},
       {.slo_ms = 200.0, .percentile = 99.0}}));
  ASSERT_TRUE(dispatcher.wait_for_servers(2, 5000.0));

  std::vector<std::future<QueryResult>> futures;
  for (int q = 0; q < 30; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(1 + q % 2);
    for (auto& t : tasks) t.simulated_service_ms = 0.2;
    futures.push_back(dispatcher.submit(q % 2, std::move(tasks)));
  }
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.admitted);
    EXPECT_EQ(r.tasks_failed, 0u);
    EXPECT_GT(r.latency_ms, 0.0);
  }
  EXPECT_EQ(dispatcher.completed_queries(), 30u);
  EXPECT_EQ(dispatcher.failed_tasks(), 0u);
  // Online updating: completions fed the per-server models.
  const auto snapshot = dispatcher.server_model(0);  // keeps the copy alive
  const auto& model = static_cast<const StreamingCdfModel&>(*snapshot);
  EXPECT_GT(model.observations(), 0u);
}

TEST(RemoteDispatcher, ExplicitPlacementAndStats) {
  auto fleet = start_fleet(2, Policy::kTfEdf, 1);
  net::RemoteDispatcher dispatcher(dispatcher_options(
      fleet, Policy::kTfEdf, {{.slo_ms = 100.0, .percentile = 99.0}}));
  ASSERT_TRUE(dispatcher.wait_for_servers(2, 5000.0));

  std::vector<net::RemoteTaskSpec> tasks(2);
  tasks[0].server = 1;
  tasks[1].server = 1;
  tasks[0].simulated_service_ms = tasks[1].simulated_service_ms = 0.2;
  const QueryResult r = dispatcher.submit(0, std::move(tasks)).get();
  EXPECT_EQ(r.tasks_failed, 0u);
  EXPECT_EQ(fleet[1]->tasks_executed(), 2u);
  EXPECT_EQ(fleet[0]->tasks_executed(), 0u);

  dispatcher.request_stats(1);
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  std::optional<net::StatsResponseMsg> stats;
  while (!(stats = dispatcher.last_stats(1)) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->tasks_executed, 2u);
}

TEST(RemoteDispatcher, NoServerReachableFailsFast) {
  net::DispatcherOptions options;
  options.servers = {{"127.0.0.1", 1}};  // nothing listens on port 1
  options.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  net::RemoteDispatcher dispatcher(options);
  EXPECT_FALSE(dispatcher.wait_for_servers(1, 200.0));
  std::vector<net::RemoteTaskSpec> tasks(3);
  const QueryResult r = dispatcher.submit(0, std::move(tasks)).get();
  EXPECT_EQ(r.tasks_failed, 3u);
  EXPECT_EQ(dispatcher.failed_tasks(), 3u);
}

TEST(RemoteDispatcher, TaskTimeoutFailsQueryNotHang) {
  auto fleet = start_fleet(1, Policy::kTfEdf, 1);
  auto options = dispatcher_options(fleet, Policy::kTfEdf,
                                    {{.slo_ms = 50.0, .percentile = 99.0}});
  options.task_timeout_ms = 100.0;
  net::RemoteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.wait_for_servers(1, 5000.0));

  std::vector<net::RemoteTaskSpec> slow(1);
  slow[0].simulated_service_ms = 700.0;
  const auto t0 = std::chrono::steady_clock::now();
  const QueryResult r = dispatcher.submit(0, std::move(slow)).get();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.tasks_failed, 1u);
  EXPECT_LT(waited, 600ms);  // resolved by the timeout, not the task

  // The late TaskDone must be absorbed without corrupting state, and the
  // dispatcher keeps working.
  std::this_thread::sleep_for(800ms);
  std::vector<net::RemoteTaskSpec> ok(1);
  ok[0].simulated_service_ms = 0.2;
  EXPECT_EQ(dispatcher.submit(0, std::move(ok)).get().tasks_failed, 0u);
}

// ----------------------------------------------- send-path backpressure

/// Most bytes the kernel buffers on the sending side of one loopback TCP
/// connection (the tcp_wmem ceiling; 4 MB, the Linux default, if unknown).
/// Pushing more than this plus the receive buffer forces a blocked send.
std::size_t send_buffer_ceiling() {
  std::ifstream f("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t min = 0, def = 0, max = 0;
  if (f >> min >> def >> max) return max;
  return std::size_t{4} << 20;
}

/// Frames of `frame_bytes` each that overfill a connection whose receiver
/// holds `receive_buffer` bytes, with a margin.
std::size_t frames_to_block(std::size_t frame_bytes,
                            std::size_t receive_buffer) {
  return (send_buffer_ceiling() + receive_buffer) / frame_bytes + 4096;
}

TEST(WriteThrough, SubmitsToAStalledDaemonArriveOnceInOrder) {
  // A raw-socket daemon completes the handshake, then stops reading. The
  // dispatcher's sends block, whether the caller made them while the net
  // loop waited or the loop made them before waiting; the loop takes over
  // the tail, and once the daemon reads again every SubmitTask arrives
  // exactly once, in task-id order.
  std::string error;
  net::ScopedFd listener = net::listen_tcp(0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  net::DispatcherOptions options;
  options.servers = {{"127.0.0.1", net::local_port(listener.get())}};
  options.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  options.task_timeout_ms = 600000.0;  // nothing may time out mid-test
  net::RemoteDispatcher dispatcher(options);

  pollfd p{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&p, 1, 5000), 1);
  TestClient daemon;
  daemon.adopt(net::ScopedFd(::accept(listener.get(), nullptr, nullptr)));
  const std::size_t receive_buffer = daemon.limit_receive_buffer(256 * 1024);
  const auto hello = daemon.read_frame();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, net::MsgType::kHello);
  daemon.send_bytes(net::encode(net::HelloAckMsg{}));
  ASSERT_TRUE(dispatcher.wait_for_servers(1, 5000.0));

  constexpr std::size_t kFanout = 64;
  const std::size_t frame_bytes = net::encode(net::SubmitTaskMsg{}).size();
  const std::size_t queries =
      frames_to_block(frame_bytes, receive_buffer) / kFanout + 1;
  for (std::size_t q = 0; q < queries; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(kFanout);
    for (auto& t : tasks) t.server = 0;
    dispatcher.submit(0, std::move(tasks));
  }

  const std::size_t expected = queries * kFanout;
  TaskId next = 0;
  while (next < expected) {
    const auto frame = daemon.read_frame();
    ASSERT_TRUE(frame.has_value()) << "stalled after " << next << " tasks";
    net::SubmitTaskMsg msg;
    ASSERT_TRUE(net::decode(*frame, &msg));
    ASSERT_EQ(msg.task, next) << "SubmitTask lost, repeated or reordered";
    ++next;
  }
  EXPECT_FALSE(daemon.read_frame(100).has_value());
}

TEST(WriteThrough, CompletionsForAStalledDispatcherArriveOnce) {
  // A raw-socket dispatcher stops reading while the daemon runs N tasks.
  // An idle executor sends its own TaskDone frame, one with a backlog leaves
  // it to the net loop; a blocked send must neither stall the executors nor
  // lose or repeat a frame once the dispatcher reads again.
  net::TaskServerOptions options;
  options.num_classes = 1;
  net::TaskServer server(options);
  TestClient dispatcher;
  ASSERT_TRUE(dispatcher.connect_to(server.port()));
  const std::size_t receive_buffer = dispatcher.limit_receive_buffer(256 * 1024);
  dispatcher.send_bytes(net::encode(net::HelloMsg{}));
  ASSERT_TRUE(dispatcher.read_frame().has_value());  // ack

  const std::size_t n = frames_to_block(
      net::encode(net::TaskDoneMsg{}).size(), receive_buffer);
  std::vector<std::uint8_t> submits;
  for (std::size_t i = 0; i < n; ++i) {
    net::SubmitTaskMsg msg;
    msg.task = i;
    msg.query = i;
    msg.relative_deadline_ms = 1e6;
    net::encode_into(msg, submits);
  }
  dispatcher.send_bytes(submits);
  const auto deadline = std::chrono::steady_clock::now() + 120s;
  while (server.tasks_executed() < n &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  ASSERT_EQ(server.tasks_executed(), n) << "executors stalled on the socket";

  std::set<TaskId> done;
  for (std::size_t i = 0; i < n; ++i) {
    const auto frame = dispatcher.read_frame();
    ASSERT_TRUE(frame.has_value()) << "stalled after " << i << " TaskDones";
    net::TaskDoneMsg msg;
    ASSERT_TRUE(net::decode(*frame, &msg));
    ASSERT_LT(msg.task, n);
    ASSERT_TRUE(done.insert(msg.task).second) << "repeated " << msg.task;
  }
  EXPECT_EQ(done.size(), n);
  EXPECT_FALSE(dispatcher.read_frame(100).has_value());
}

TEST(WriteThrough, SlowTaskBehindAnsweredOnesStillTimesOut) {
  // The timeout FIFO pops answered tasks off its front. A slow task queued
  // behind thousands of them must still fail at its own timeout, and its
  // late TaskDone must be absorbed.
  auto fleet = start_fleet(2, Policy::kTfEdf, 1);
  auto options = dispatcher_options(fleet, Policy::kTfEdf,
                                    {{.slo_ms = 50.0, .percentile = 99.0}});
  options.task_timeout_ms = 800.0;
  net::RemoteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.wait_for_servers(2, 5000.0));

  std::vector<std::future<QueryResult>> fast;
  for (int q = 0; q < 2000; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(1);
    tasks[0].server = 0;
    fast.push_back(dispatcher.submit(0, std::move(tasks)));
  }
  std::vector<net::RemoteTaskSpec> slow(1);
  slow[0].server = 1;
  slow[0].simulated_service_ms = 2000.0;
  const auto t0 = std::chrono::steady_clock::now();
  auto slow_future = dispatcher.submit(0, std::move(slow));
  for (auto& f : fast) EXPECT_EQ(f.get().tasks_failed, 0u);
  EXPECT_EQ(slow_future.get().tasks_failed, 1u);
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 750ms);
  EXPECT_LT(waited, 1800ms);  // resolved by the timeout, not the task

  std::this_thread::sleep_for(1500ms);  // the late TaskDone lands
  std::vector<net::RemoteTaskSpec> ok(1);
  ok[0].server = 1;
  EXPECT_EQ(dispatcher.submit(0, std::move(ok)).get().tasks_failed, 0u);
  EXPECT_EQ(dispatcher.failed_tasks(), 1u);
  EXPECT_EQ(dispatcher.completed_queries(), 2002u);
}

TEST(RemoteDispatcher, AdmissionControlShedsLoadBeforeTheWire) {
  auto fleet = start_fleet(1, Policy::kTfEdf, 1);
  auto options = dispatcher_options(fleet, Policy::kTfEdf,
                                    {{.slo_ms = 50.0, .percentile = 99.0}});
  AdmissionOptions admission;
  admission.window_tasks = 100000;
  admission.window_ms = 1e9;  // effectively unbounded for this test
  admission.miss_ratio_threshold = 0.0005;
  admission.mode = AdmissionMode::kOnOff;
  options.admission = admission;
  net::RemoteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.wait_for_servers(1, 5000.0));

  // Poison the miss window: a negative budget override makes the task late
  // by construction, so its TaskDone carries missed_deadline=true and the
  // dispatcher's admission window sees a 100% miss ratio.
  std::vector<net::RemoteTaskSpec> late(1);
  late[0].simulated_service_ms = 0.2;
  const QueryResult poison =
      dispatcher.submit(0, std::move(late), /*budget_override=*/-1.0).get();
  EXPECT_TRUE(poison.admitted);
  EXPECT_EQ(poison.tasks_missed_deadline, 1u);
  EXPECT_EQ(fleet[0]->tasks_executed(), 1u);

  // Every new query is now rejected at the dispatcher: resolved immediately
  // with admitted=false, never serialized onto a connection.
  for (int q = 0; q < 10; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(2);
    for (auto& t : tasks) t.simulated_service_ms = 0.2;
    const QueryResult r = dispatcher.submit(0, std::move(tasks)).get();
    EXPECT_FALSE(r.admitted);
    EXPECT_EQ(r.tasks_failed, 0u);
  }
  EXPECT_EQ(dispatcher.rejected_queries(), 10u);
  EXPECT_EQ(dispatcher.completed_queries(), 1u);
  EXPECT_EQ(dispatcher.failed_tasks(), 0u);
  // Rejected queries never hit the wire: the daemon still saw only the
  // poison task.
  EXPECT_EQ(fleet[0]->tasks_executed(), 1u);
}

// The acceptance scenario: a 4-daemon fleet under TF-EDFQ on the quickstart
// workload meets per-(class,fanout) SLOs, matching the in-process runtime on
// the same workload; killing a daemon mid-run degrades gracefully and the
// dispatcher reconnects when it returns.
struct GroupStats {
  std::vector<double> latencies;
  double budget_ms = 0.0;
};

double p99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  return v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
}

TEST(RemoteDispatcher, LoopbackEndToEndMatchesInProcessRuntime) {
  constexpr std::size_t kServers = 4;
  const std::vector<ClassSpec> classes = {{.slo_ms = 80.0, .percentile = 99.0},
                                          {.slo_ms = 160.0, .percentile = 99.0}};
  // Offline profile: tasks take ~0.5-1.5 ms post-queuing.
  Rng profile_rng(42);
  std::vector<double> profile(3000);
  for (auto& x : profile) x = 0.5 + profile_rng.uniform();

  const auto run_workload = [&](auto&& submit_query) {
    std::map<std::pair<ClassId, std::uint32_t>, GroupStats> groups;
    std::vector<std::pair<std::pair<ClassId, std::uint32_t>,
                          std::future<QueryResult>>>
        futures;
    Rng rng(7);
    for (int q = 0; q < 240; ++q) {
      const ClassId cls = q % 3 == 0 ? 1 : 0;
      const std::uint32_t fanout = cls == 0 ? 2 : 4;
      std::vector<double> service(fanout);
      for (auto& s : service) s = 0.5 + rng.uniform();
      futures.emplace_back(std::make_pair(cls, fanout),
                           submit_query(cls, service));
      std::this_thread::sleep_for(1500us);
    }
    for (auto& [key, fut] : futures) {
      const QueryResult r = fut.get();
      EXPECT_EQ(r.tasks_failed, 0u);
      auto& g = groups[key];
      g.latencies.push_back(r.latency_ms);
      if (g.budget_ms == 0.0) g.budget_ms = r.deadline_budget_ms;
    }
    return groups;
  };

  // Remote: 4 daemons + dispatcher over loopback TCP.
  auto fleet = start_fleet(kServers, Policy::kTfEdf, classes.size());
  auto remote_groups = [&] {
    net::RemoteDispatcher dispatcher(
        dispatcher_options(fleet, Policy::kTfEdf, classes));
    EXPECT_TRUE(dispatcher.wait_for_servers(kServers, 5000.0));
    dispatcher.seed_profile(profile);
    return run_workload([&](ClassId cls, const std::vector<double>& service) {
      std::vector<net::RemoteTaskSpec> tasks(service.size());
      for (std::size_t i = 0; i < service.size(); ++i)
        tasks[i].simulated_service_ms = service[i];
      return dispatcher.submit(cls, std::move(tasks));
    });
  }();

  // In-process: the same workload through TailGuardService.
  ServiceOptions svc_options;
  svc_options.num_workers = kServers;
  svc_options.policy = Policy::kTfEdf;
  svc_options.classes = classes;
  TailGuardService service(svc_options);
  service.seed_profile(profile);
  auto local_groups =
      run_workload([&](ClassId cls, const std::vector<double>& service_ms) {
        std::vector<ServiceTaskSpec> tasks(service_ms.size());
        for (std::size_t i = 0; i < service_ms.size(); ++i)
          tasks[i].simulated_service_ms = service_ms[i];
        return service.submit(cls, std::move(tasks));
      });

  ASSERT_EQ(remote_groups.size(), 2u);
  ASSERT_EQ(local_groups.size(), 2u);
  for (const auto& [key, remote] : remote_groups) {
    const auto& local = local_groups.at(key);
    const double slo = classes[key.first].slo_ms;
    // Both runtimes meet the per-(class,fanout) SLO...
    EXPECT_LE(p99(remote.latencies), slo)
        << "remote class " << key.first << " fanout " << key.second;
    EXPECT_LE(p99(local.latencies), slo)
        << "local class " << key.first << " fanout " << key.second;
    // ...and assign near-identical Eq. 6 budgets from the shared profile.
    EXPECT_NEAR(remote.budget_ms, local.budget_ms, 0.3 * local.budget_ms + 5.0)
        << "class " << key.first << " fanout " << key.second;
  }
  // Deadline ordering: the fanout-4 loose class still gets a larger budget
  // than the fanout-2 tight class here (SLO gap dominates), and within the
  // remote run budgets are finite and positive after seeding.
  const double b_tight = remote_groups.at({0, 2}).budget_ms;
  const double b_loose = remote_groups.at({1, 4}).budget_ms;
  EXPECT_GT(b_tight, 0.0);
  EXPECT_GT(b_loose, b_tight);
}

TEST(RemoteDispatcher, KilledServerDegradesGracefullyAndRejoins) {
  constexpr std::size_t kServers = 4;
  const std::vector<ClassSpec> classes = {{.slo_ms = 100.0, .percentile = 99.0}};
  auto fleet = start_fleet(kServers, Policy::kTfEdf, 1);
  auto options = dispatcher_options(fleet, Policy::kTfEdf, classes);
  options.task_timeout_ms = 2000.0;
  net::RemoteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.wait_for_servers(kServers, 5000.0));

  const std::uint16_t victim_port = fleet[1]->port();

  // Pin a long task on the victim so the kill strikes a query in flight.
  std::vector<net::RemoteTaskSpec> doomed(1);
  doomed[0].server = 1;
  doomed[0].simulated_service_ms = 30000.0;  // would block for 30 s
  auto doomed_future = dispatcher.submit(0, std::move(doomed));

  std::vector<std::future<QueryResult>> before;
  for (int q = 0; q < 20; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(2);
    for (auto& t : tasks) t.simulated_service_ms = 0.2;
    before.push_back(dispatcher.submit(0, std::move(tasks)));
  }

  // Kill daemon 1 mid-run. Note: TaskServer::stop drains queued work, so
  // stop the in-flight 30 s task by replacing the object entirely is not an
  // option — instead the dispatcher must fail it on disconnect, which is
  // exactly what this asserts (the future resolves in ms, not in 30 s).
  std::thread killer([&fleet] { fleet[1]->stop(); });
  const auto t0 = std::chrono::steady_clock::now();
  const QueryResult doomed_result = doomed_future.get();
  EXPECT_EQ(doomed_result.tasks_failed, 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);

  // Remaining servers absorb placement: new queries succeed with no hang.
  std::vector<std::future<QueryResult>> after;
  for (int q = 0; q < 20; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(3);
    for (auto& t : tasks) t.simulated_service_ms = 0.2;
    after.push_back(dispatcher.submit(0, std::move(tasks)));
  }
  for (auto& f : before) f.get();
  for (auto& f : after) EXPECT_EQ(f.get().tasks_failed, 0u);
  EXPECT_EQ(dispatcher.alive_servers(), kServers - 1);

  killer.join();

  // The daemon returns on the same port; the dispatcher reconnects and
  // resumes placing work on it.
  net::TaskServerOptions revive;
  revive.port = victim_port;
  revive.num_classes = 1;
  fleet[1] = std::make_unique<net::TaskServer>(revive);
  ASSERT_TRUE(dispatcher.wait_for_servers(kServers, 10000.0));
  std::vector<net::RemoteTaskSpec> pinned(1);
  pinned[0].server = 1;
  pinned[0].simulated_service_ms = 0.2;
  EXPECT_EQ(dispatcher.submit(0, std::move(pinned)).get().tasks_failed, 0u);
  EXPECT_GE(fleet[1]->tasks_executed(), 1u);
}

}  // namespace
}  // namespace tailguard
