// Tests for the wire-level observation stream (net/): GossipDelta serde
// round-trips and truncation rejection, the daemon's periodic delta stream
// over a raw socket, the dispatcher-level end-to-end path (dispatcher B's
// CDF model learns from dispatcher A's completions, exactly once), the
// rejoin backfill riding the same stream with gossip off, and the
// mixed-version story — retired message types are skipped as unknown.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cdf_model.h"
#include "net/dispatcher.h"
#include "net/socket.h"
#include "net/task_server.h"
#include "net/wire.h"

namespace tailguard {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------- wire

net::GossipDeltaMsg sample_delta() {
  net::GossipDeltaMsg msg;
  msg.seq = 17;
  msg.dequeues_recorded = 40;
  msg.dequeues_missed = 3;
  net::GossipDeltaMsg::ServerEntry a;
  a.server = 0;
  a.samples_ms = {0.5, 1.25, 30.0};
  a.samples_dropped = 2;
  a.load_estimate = 7;
  a.has_load = true;
  net::GossipDeltaMsg::ServerEntry b;
  b.server = 4;
  b.has_load = false;
  msg.servers = {a, b};
  return msg;
}

TEST(GossipWire, DeltaRoundTrip) {
  const net::GossipDeltaMsg msg = sample_delta();
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  const auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, net::MsgType::kGossipDelta);
  net::GossipDeltaMsg decoded;
  ASSERT_TRUE(net::decode(*frame, &decoded));
  EXPECT_EQ(decoded, msg);
}

TEST(GossipWire, EncodingMatchesGoldenBytes) {
  // sample_delta()'s frame as wire protocol 1 lays it out. Daemons and
  // dispatchers built from different commits share a fleet, so these bytes
  // must not move while kWireVersion stays 1.
  const std::string golden =
      "4754" "01" "09" "62000000"  // magic, version, kGossipDelta, 98 bytes
      "00000000"                   // reserved u32, written as 0
      "1100000000000000"           // seq 17
      "2800000000000000"           // dequeues_recorded 40
      "0300000000000000"           // dequeues_missed 3
      "02000000"                   // two entries
      // server 0: 2 dropped, load 7, has_load, samples 0.5, 1.25, 30.0
      "00000000" "0200000000000000" "07000000" "01" "03000000"
      "000000000000e03f" "000000000000f43f" "0000000000003e40"
      // server 4: nothing dropped, no load, no samples
      "04000000" "0000000000000000" "00000000" "00" "00000000";
  std::string hex;
  for (const std::uint8_t byte : net::encode(sample_delta())) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  EXPECT_EQ(hex, golden);
}

TEST(GossipWire, EmptyDeltaRoundTrip) {
  net::GossipDeltaMsg msg;
  msg.seq = 1;
  const auto bytes = net::encode(msg);
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  net::GossipDeltaMsg decoded;
  ASSERT_TRUE(net::decode(*buf.next(), &decoded));
  EXPECT_EQ(decoded, msg);
  EXPECT_TRUE(decoded.empty());
}

TEST(GossipWire, DecodeRejectsTruncatedDelta) {
  const auto bytes = net::encode(sample_delta());
  net::FrameBuffer buf;
  buf.append(bytes.data(), bytes.size());
  auto frame = buf.next();
  ASSERT_TRUE(frame.has_value());
  // Every truncation point must be rejected, never mis-parsed.
  net::Frame cut = *frame;
  while (!cut.payload.empty()) {
    cut.payload.pop_back();
    net::GossipDeltaMsg decoded;
    EXPECT_FALSE(net::decode(cut, &decoded)) << cut.payload.size();
  }
}

TEST(GossipWire, DecodeRejectsImpossibleCounts) {
  // A tiny payload claiming 2^31 server entries must fail the
  // payload-impossible guard before any allocation happens.
  net::Frame frame;
  frame.type = net::MsgType::kGossipDelta;
  frame.payload = {0, 0, 0, 0,              // reserved
                   1, 0, 0, 0, 0, 0, 0, 0,  // seq
                   0, 0, 0, 0, 0, 0, 0, 0,  // dequeues_recorded
                   0, 0, 0, 0, 0, 0, 0, 0,  // dequeues_missed
                   0xff, 0xff, 0xff, 0x7f}; // num_servers = 2^31 - 1
  net::GossipDeltaMsg decoded;
  EXPECT_FALSE(net::decode(frame, &decoded));

  // More misses than dequeues: the admission window would fail a check on
  // the dispatcher's net thread, so the frame must not decode.
  const auto decodes = [](const net::GossipDeltaMsg& msg) {
    const auto bytes = net::encode(msg);
    net::FrameBuffer buf;
    buf.append(bytes.data(), bytes.size());
    net::GossipDeltaMsg out;
    return net::decode(*buf.next(), &out);
  };
  net::GossipDeltaMsg counts = sample_delta();
  counts.dequeues_recorded = 4;
  counts.dequeues_missed = 5;
  EXPECT_FALSE(decodes(counts));
  counts.dequeues_missed = 4;
  EXPECT_TRUE(decodes(counts));

  // A non-finite sample would poison the receiver's streaming model.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    net::GossipDeltaMsg samples = sample_delta();
    samples.servers.back().samples_ms.push_back(bad);
    EXPECT_FALSE(decodes(samples)) << bad;
  }
}

// ------------------------------------------------------- raw-socket client

/// Minimal blocking-ish wire client standing in for an *old* dispatcher: it
/// understands the v1 framing but none of the gossip message types.
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

  /// Accepts one connection on `listener`, standing in for a daemon.
  bool accept_from(int listener) {
    pollfd p{listener, POLLIN, 0};
    if (::poll(&p, 1, 5000) != 1) return false;
    fd_ = net::ScopedFd(::accept(listener, nullptr, nullptr));
    return fd_.valid() && net::set_nonblocking(fd_.get());
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

  /// Reads frames until one of `type` arrives (skipping everything else,
  /// exactly as an old dispatcher would skip unknown message types).
  std::optional<net::Frame> read_frame_of(net::MsgType type,
                                          int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() <= deadline) {
      auto frame = read_frame(200);
      if (frame.has_value() && frame->type == type) return frame;
    }
    return std::nullopt;
  }

  void close() { fd_.reset(); }

 private:
  net::ScopedFd fd_;
  net::FrameBuffer in_;
};

TEST(GossipDaemon, AnnouncesAndStreamsDeltasOverRawSocket) {
  net::TaskServerOptions options;
  options.gossip_interval_ms = 20.0;
  net::TaskServer server(options);

  TestClient client;
  ASSERT_TRUE(client.connect_to(server.port()));
  client.send_bytes(net::encode(net::HelloMsg{.peer_name = "raw"}));
  const auto ack = client.read_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, net::MsgType::kHelloAck);

  // Periodic deltas flow even with nothing to report; the sole client's own
  // completions are excluded from its stream, so samples stay empty.
  const auto delta_frame = client.read_frame_of(net::MsgType::kGossipDelta);
  ASSERT_TRUE(delta_frame.has_value());
  net::GossipDeltaMsg delta;
  ASSERT_TRUE(net::decode(*delta_frame, &delta));
  EXPECT_GE(delta.seq, 1u);
  for (const auto& entry : delta.servers)
    EXPECT_TRUE(entry.samples_ms.empty());
  EXPECT_EQ(delta.dequeues_recorded, 0u);
  EXPECT_GE(server.gossip_deltas_sent(), delta.seq);
}

TEST(GossipDaemon, ShipsOtherConnectionsCompletionsNotOwn) {
  net::TaskServerOptions options;
  options.gossip_interval_ms = 20.0;
  net::TaskServer server(options);

  TestClient submitter, observer;
  ASSERT_TRUE(submitter.connect_to(server.port()));
  ASSERT_TRUE(observer.connect_to(server.port()));
  submitter.send_bytes(net::encode(net::HelloMsg{.peer_name = "submitter"}));
  observer.send_bytes(net::encode(net::HelloMsg{.peer_name = "observer"}));
  ASSERT_TRUE(submitter.read_frame().has_value());  // HelloAck
  ASSERT_TRUE(observer.read_frame().has_value());   // HelloAck

  net::SubmitTaskMsg submit;
  submit.task = 1;
  submit.query = 1;
  submit.cls = 0;
  submit.relative_deadline_ms = 100.0;
  submit.simulated_service_ms = 0.5;
  submitter.send_bytes(net::encode(submit));
  const auto done = submitter.read_frame_of(net::MsgType::kTaskDone);
  ASSERT_TRUE(done.has_value());

  // The observer's stream eventually carries the submitter's sample...
  bool saw_sample = false;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!saw_sample && std::chrono::steady_clock::now() < deadline) {
    const auto frame = observer.read_frame_of(net::MsgType::kGossipDelta);
    ASSERT_TRUE(frame.has_value());
    net::GossipDeltaMsg msg;
    ASSERT_TRUE(net::decode(*frame, &msg));
    for (const auto& entry : msg.servers)
      if (!entry.samples_ms.empty()) {
        EXPECT_GE(entry.samples_ms[0], 0.4);
        saw_sample = true;
      }
    if (saw_sample) {
      EXPECT_EQ(msg.dequeues_recorded, 1u);
    }
  }
  EXPECT_TRUE(saw_sample);

  // ...while the submitter's own stream never echoes it back (TaskDone is
  // its copy; duplicating it through gossip would double-count).
  const auto own = submitter.read_frame_of(net::MsgType::kGossipDelta);
  ASSERT_TRUE(own.has_value());
  net::GossipDeltaMsg own_msg;
  ASSERT_TRUE(net::decode(*own, &own_msg));
  for (const auto& entry : own_msg.servers)
    EXPECT_TRUE(entry.samples_ms.empty());
}

// -------------------------------------------------------- dispatcher e2e

/// One frame of a retired message type, as an older daemon sends it.
std::vector<std::uint8_t> retired_frame(
    std::uint8_t type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out = {
      static_cast<std::uint8_t>(net::kWireMagic),
      static_cast<std::uint8_t>(net::kWireMagic >> 8), net::kWireVersion,
      type};
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(payload.size() >> (8 * i)));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

net::DispatcherOptions one_server_options(std::uint16_t port) {
  net::DispatcherOptions options;
  options.servers.push_back({"127.0.0.1", port});
  options.policy = Policy::kTfEdf;
  options.classes = {{.slo_ms = 100.0, .percentile = 99.0}};
  return options;
}

TEST(GossipE2E, SecondDispatcherLearnsFromFirstExactlyOnce) {
  net::TaskServerOptions server_options;
  server_options.gossip_interval_ms = 20.0;
  server_options.num_classes = 1;
  net::TaskServer server(server_options);

  net::RemoteDispatcher a(one_server_options(server.port()));
  net::RemoteDispatcher b(one_server_options(server.port()));
  ASSERT_TRUE(a.wait_for_servers(1, 5000.0));
  ASSERT_TRUE(b.wait_for_servers(1, 5000.0));

  constexpr int kQueries = 20;
  std::vector<std::future<QueryResult>> futures;
  for (int q = 0; q < kQueries; ++q) {
    std::vector<net::RemoteTaskSpec> tasks(1);
    tasks[0].simulated_service_ms = 0.2;
    futures.push_back(a.submit(0, std::move(tasks)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().tasks_failed, 0u);

  // B ran nothing, yet its model must converge on A's observations via the
  // daemon's gossip stream.
  const auto observations = [&] {
    return static_cast<const StreamingCdfModel&>(*b.server_model(0))
        .observations();
  };
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (observations() < kQueries &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(observations(), static_cast<std::uint64_t>(kQueries));
  EXPECT_GT(b.gossip_deltas_absorbed(), 0u);
  EXPECT_EQ(b.gossip_duplicates_dropped(), 0u);

  // Exactly once: further empty rounds must not inflate the count, and A's
  // model holds its own TaskDone-fed samples without gossip echoes.
  std::this_thread::sleep_for(60ms);
  EXPECT_EQ(observations(), static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(static_cast<const StreamingCdfModel&>(*a.server_model(0))
                .observations(),
            static_cast<std::uint64_t>(kQueries));
}

TEST(GossipE2E, GossipOffDaemonBehavesLikePreGossipBuild) {
  // gossip_interval_ms = 0: with nothing orphaned no delta is ever sent, so
  // dispatchers learn nothing of each other's completions.
  net::TaskServer server(net::TaskServerOptions{});

  net::RemoteDispatcher a(one_server_options(server.port()));
  net::RemoteDispatcher b(one_server_options(server.port()));
  ASSERT_TRUE(a.wait_for_servers(1, 5000.0));
  ASSERT_TRUE(b.wait_for_servers(1, 5000.0));

  std::vector<net::RemoteTaskSpec> tasks(1);
  tasks[0].simulated_service_ms = 0.2;
  EXPECT_EQ(a.submit(0, std::move(tasks)).get().tasks_failed, 0u);
  std::this_thread::sleep_for(50ms);

  EXPECT_EQ(b.gossip_deltas_absorbed(), 0u);
  EXPECT_EQ(static_cast<const StreamingCdfModel&>(*b.server_model(0))
                .observations(),
            0u);
}

TEST(GossipE2E, ModelSyncBackfillStillCoversDisconnectedEras) {
  // Samples completed with no owner connected reach the next dispatcher as
  // its connection's first GossipDelta, gossip off or not — exactly once.
  net::TaskServer server(net::TaskServerOptions{});
  {
    TestClient first;
    ASSERT_TRUE(first.connect_to(server.port()));
    first.send_bytes(net::encode(net::HelloMsg{.peer_name = "first"}));
    ASSERT_TRUE(first.read_frame().has_value());  // HelloAck
    net::SubmitTaskMsg submit;
    submit.task = 1;
    submit.query = 1;
    submit.relative_deadline_ms = 1000.0;
    submit.simulated_service_ms = 30.0;
    first.send_bytes(net::encode(submit));
    std::this_thread::sleep_for(5ms);  // let the submit land, not finish
    first.close();
  }

  // The backfill is sent at Hello time, so the orphaned completion must land
  // in the buffer before the late dispatcher's handshake.
  const auto executed_deadline = std::chrono::steady_clock::now() + 5s;
  while (server.tasks_executed() == 0 &&
         std::chrono::steady_clock::now() < executed_deadline)
    std::this_thread::sleep_for(5ms);
  ASSERT_EQ(server.tasks_executed(), 1u);

  net::RemoteDispatcher late(one_server_options(server.port()));
  ASSERT_TRUE(late.wait_for_servers(1, 5000.0));
  const auto observations = [&] {
    return static_cast<const StreamingCdfModel&>(*late.server_model(0))
        .observations();
  };
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (observations() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(5ms);
  EXPECT_EQ(observations(), 1u);
  EXPECT_EQ(late.gossip_deltas_absorbed(), 1u);
}

TEST(GossipE2E, MalformedDeltaIsSkippedAndDispatcherKeepsServing) {
  // A daemon (a raw socket here) sends four frames a dispatcher must not
  // absorb. One of each retired type in its old layout, as an older daemon
  // would: ModelSync (5) samples and GossipHello (8). Then two deltas: more
  // misses than dequeues, which with admission on used to fail the
  // admission window's check on the net thread and terminate the process,
  // and a NaN sample, which would poison the server's model. All are
  // skipped: the connection stays up, the next valid delta is absorbed and
  // queries keep completing. A last delta with both counts at 2^64 - 1 is
  // absorbed; it used to wrap the admission window's tallies and reject
  // every query for the window's 1 s.
  net::TaskServerOptions server_options;
  server_options.num_classes = 1;
  net::TaskServer real(server_options);

  std::string error;
  net::ScopedFd listener = net::listen_tcp(0, &error);
  ASSERT_TRUE(listener.valid()) << error;
  net::DispatcherOptions options =
      one_server_options(net::local_port(listener.get()));
  options.servers.push_back({"127.0.0.1", real.port()});
  options.admission = AdmissionOptions{};

  std::atomic<bool> stop{false};
  std::atomic<bool> handshake_ok{false};
  std::thread fake([&] {
    TestClient daemon;
    if (!daemon.accept_from(listener.get())) return;
    if (!daemon.read_frame_of(net::MsgType::kHello)) return;
    daemon.send_bytes(net::encode(net::HelloAckMsg{}));
    handshake_ok = true;
    // A u32 count, then that many f64 samples.
    std::vector<std::uint8_t> model_sync = {2, 0, 0, 0};
    for (const double s : {0.5, 0.75})
      for (int i = 0; i < 8; ++i)
        model_sync.push_back(static_cast<std::uint8_t>(
            std::bit_cast<std::uint64_t>(s) >> (8 * i)));
    daemon.send_bytes(retired_frame(5, model_sync));
    // Two u32s: gossip_version 1, origin 0.
    daemon.send_bytes(retired_frame(8, {1, 0, 0, 0, 0, 0, 0, 0}));
    net::GossipDeltaMsg bad_counts;
    bad_counts.seq = 1;
    bad_counts.dequeues_recorded = 1;
    bad_counts.dequeues_missed = 5;
    daemon.send_bytes(net::encode(bad_counts));
    net::GossipDeltaMsg nan_sample;
    nan_sample.seq = 2;
    nan_sample.servers.emplace_back().samples_ms = {
        0.5, std::numeric_limits<double>::quiet_NaN()};
    daemon.send_bytes(net::encode(nan_sample));
    net::GossipDeltaMsg valid;
    valid.seq = 3;
    valid.dequeues_recorded = 2;
    valid.servers.emplace_back().samples_ms = {0.5};
    daemon.send_bytes(net::encode(valid));
    net::GossipDeltaMsg huge;
    huge.seq = 4;
    huge.dequeues_recorded = std::numeric_limits<std::uint64_t>::max();
    huge.dequeues_missed = huge.dequeues_recorded;
    daemon.send_bytes(net::encode(huge));
    while (!stop) daemon.read_frame(50);
  });
  struct StopAndJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~StopAndJoin() {
      stop = true;
      thread.join();
    }
  } stop_and_join{stop, fake};

  {
    net::RemoteDispatcher dispatcher(options);
    ASSERT_TRUE(dispatcher.wait_for_servers(2, 5000.0));
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (dispatcher.gossip_deltas_absorbed() < 2 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(handshake_ok);
    EXPECT_EQ(dispatcher.gossip_deltas_absorbed(), 2u);
    EXPECT_EQ(static_cast<const StreamingCdfModel&>(
                  *dispatcher.server_model(0)).observations(),
              1u);

    std::vector<std::future<QueryResult>> futures;
    for (int q = 0; q < 20; ++q) {
      std::vector<net::RemoteTaskSpec> tasks(1);
      tasks[0].server = 1;
      tasks[0].simulated_service_ms = 0.1;
      futures.push_back(dispatcher.submit(0, std::move(tasks)));
    }
    for (auto& f : futures) {
      const QueryResult r = f.get();
      EXPECT_TRUE(r.admitted);
      EXPECT_EQ(r.tasks_failed, 0u);
    }
    EXPECT_EQ(dispatcher.alive_servers(), 2u);
  }
}

}  // namespace
}  // namespace tailguard
