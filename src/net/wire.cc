#include "net/wire.h"

#include <sys/socket.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

namespace tailguard::net {

namespace {

// ----------------------------------------------------------------- writer

// Serialises one frame straight into the caller's buffer, header first: the
// constructor writes the 8-byte header with a zero length, payload fields
// append behind it, and finish() patches the real length in. One buffer, no
// payload staging copy — and because the buffer is caller-owned, consecutive
// frames coalesce into it (SendQueue hands the same chunk to many writers).
class Writer {
 public:
  Writer(std::vector<std::uint8_t>& out, MsgType type)
      : out_(out), len_at_(out.size() + 4) {
    u16(kWireMagic);
    u8(kWireVersion);
    u8(static_cast<std::uint8_t>(type));
    u32(0);  // payload length, patched by finish()
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Back-patches the payload length now that the payload is complete.
  void finish() {
    const std::size_t payload = out_.size() - (len_at_ + 4);
    for (int i = 0; i < 4; ++i)
      out_[len_at_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(payload >> (8 * i));
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t len_at_;  ///< offset of the length field within out_
};

// ----------------------------------------------------------------- reader

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t* v) {
    if (!have(1)) return false;
    *v = bytes_[pos_++];
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (!have(4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (!have(8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }
  /// Every f64 field is a time: NaN or an infinity is malformed. Letting
  /// one through would poison a streaming model's running sums for good or
  /// overflow a duration conversion on the daemon.
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return std::isfinite(*v);
  }
  bool str(std::string* s) {
    std::uint32_t n = 0;
    if (!u32(&n) || !have(n)) return false;
    s->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  /// Payload decoding must consume every byte — trailing garbage means the
  /// sender and receiver disagree about the message layout.
  bool done() const { return pos_ == bytes_.size(); }

 private:
  bool have(std::size_t n) const { return bytes_.size() - pos_ >= n; }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

bool expect_type(const Frame& frame, MsgType type) {
  return frame.type == type;
}

}  // namespace

// ------------------------------------------------------------------ encode

void encode_into(const HelloMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kHello);
  w.u32(msg.protocol_version);
  w.str(msg.peer_name);
  w.finish();
}

void encode_into(const HelloAckMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kHelloAck);
  w.u32(msg.protocol_version);
  w.u8(msg.policy);
  w.u32(msg.num_executors);
  w.finish();
}

void encode_into(const SubmitTaskMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kSubmitTask);
  w.u64(msg.task);
  w.u64(msg.query);
  w.u32(msg.cls);
  w.f64(msg.relative_deadline_ms);
  w.f64(msg.simulated_service_ms);
  w.finish();
}

void encode_into(const TaskDoneMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kTaskDone);
  w.u64(msg.task);
  w.u64(msg.query);
  w.f64(msg.queue_ms);
  w.f64(msg.service_ms);
  w.u8(msg.missed_deadline ? 1 : 0);
  w.finish();
}

void encode_into(const StatsRequestMsg&, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kStatsRequest);
  w.finish();
}

void encode_into(const StatsResponseMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kStatsResponse);
  w.u32(msg.queue_depth);
  w.u64(msg.tasks_executed);
  w.u64(msg.tasks_missed_deadline);
  w.finish();
}

void encode_into(const GossipDeltaMsg& msg, std::vector<std::uint8_t>& out) {
  Writer w(out, MsgType::kGossipDelta);
  w.u32(0);  // reserved
  w.u64(msg.seq);
  w.u64(msg.dequeues_recorded);
  w.u64(msg.dequeues_missed);
  w.u32(static_cast<std::uint32_t>(msg.servers.size()));
  for (const auto& e : msg.servers) {
    w.u32(static_cast<std::uint32_t>(e.server));
    w.u64(e.samples_dropped);
    w.u32(e.load_estimate);
    w.u8(e.has_load ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(e.samples_ms.size()));
    for (double s : e.samples_ms) w.f64(s);
  }
  w.finish();
}

namespace {
template <typename Msg>
std::vector<std::uint8_t> encode_one(const Msg& msg) {
  std::vector<std::uint8_t> out;
  encode_into(msg, out);
  return out;
}
}  // namespace

std::vector<std::uint8_t> encode(const HelloMsg& msg) { return encode_one(msg); }
std::vector<std::uint8_t> encode(const HelloAckMsg& msg) {
  return encode_one(msg);
}
std::vector<std::uint8_t> encode(const SubmitTaskMsg& msg) {
  return encode_one(msg);
}
std::vector<std::uint8_t> encode(const TaskDoneMsg& msg) {
  return encode_one(msg);
}
std::vector<std::uint8_t> encode(const StatsRequestMsg& msg) {
  return encode_one(msg);
}
std::vector<std::uint8_t> encode(const StatsResponseMsg& msg) {
  return encode_one(msg);
}
std::vector<std::uint8_t> encode(const GossipDeltaMsg& msg) {
  return encode_one(msg);
}

// ------------------------------------------------------------------ decode

bool decode(const Frame& frame, HelloMsg* out) {
  if (!expect_type(frame, MsgType::kHello)) return false;
  Reader r(frame.payload);
  return r.u32(&out->protocol_version) && r.str(&out->peer_name) && r.done();
}

bool decode(const Frame& frame, HelloAckMsg* out) {
  if (!expect_type(frame, MsgType::kHelloAck)) return false;
  Reader r(frame.payload);
  return r.u32(&out->protocol_version) && r.u8(&out->policy) &&
         r.u32(&out->num_executors) && r.done();
}

bool decode(const Frame& frame, SubmitTaskMsg* out) {
  if (!expect_type(frame, MsgType::kSubmitTask)) return false;
  Reader r(frame.payload);
  return r.u64(&out->task) && r.u64(&out->query) && r.u32(&out->cls) &&
         r.f64(&out->relative_deadline_ms) &&
         r.f64(&out->simulated_service_ms) && r.done();
}

bool decode(const Frame& frame, TaskDoneMsg* out) {
  if (!expect_type(frame, MsgType::kTaskDone)) return false;
  Reader r(frame.payload);
  std::uint8_t missed = 0;
  if (!(r.u64(&out->task) && r.u64(&out->query) && r.f64(&out->queue_ms) &&
        r.f64(&out->service_ms) && r.u8(&missed) && r.done()))
    return false;
  out->missed_deadline = missed != 0;
  return true;
}

bool decode(const Frame& frame, StatsRequestMsg*) {
  return expect_type(frame, MsgType::kStatsRequest) && frame.payload.empty();
}

bool decode(const Frame& frame, StatsResponseMsg* out) {
  if (!expect_type(frame, MsgType::kStatsResponse)) return false;
  Reader r(frame.payload);
  return r.u32(&out->queue_depth) && r.u64(&out->tasks_executed) &&
         r.u64(&out->tasks_missed_deadline) && r.done();
}

bool decode(const Frame& frame, GossipDeltaMsg* out) {
  if (!expect_type(frame, MsgType::kGossipDelta)) return false;
  Reader r(frame.payload);
  GossipDeltaMsg& d = *out;
  std::uint32_t reserved = 0;  // read and discarded
  std::uint32_t num_servers = 0;
  if (!(r.u32(&reserved) && r.u64(&d.seq) && r.u64(&d.dequeues_recorded) &&
        r.u64(&d.dequeues_missed) && r.u32(&num_servers)))
    return false;
  // More misses than dequeues cannot happen; the admission window would
  // reject the increment with a failed check on the net thread.
  if (d.dequeues_missed > d.dequeues_recorded) return false;
  // Each entry is at least 17 bytes; reject counts the payload cannot hold
  // before reserving.
  if (static_cast<std::size_t>(num_servers) * 17 > frame.payload.size())
    return false;
  d.servers.clear();
  d.servers.reserve(num_servers);
  for (std::uint32_t i = 0; i < num_servers; ++i) {
    GossipDeltaMsg::ServerEntry e;
    std::uint32_t server = 0;
    std::uint8_t has_load = 0;
    std::uint32_t num_samples = 0;
    if (!(r.u32(&server) && r.u64(&e.samples_dropped) &&
          r.u32(&e.load_estimate) && r.u8(&has_load) && r.u32(&num_samples)))
      return false;
    if (static_cast<std::size_t>(num_samples) * 8 > frame.payload.size())
      return false;
    e.server = server;
    e.has_load = has_load != 0;
    e.samples_ms.reserve(num_samples);
    for (std::uint32_t j = 0; j < num_samples; ++j) {
      double s = 0.0;
      if (!r.f64(&s)) return false;
      e.samples_ms.push_back(s);
    }
    d.servers.push_back(std::move(e));
  }
  return r.done();
}

// ------------------------------------------------------------- FrameBuffer

void FrameBuffer::append(const std::uint8_t* data, std::size_t n) {
  if (!error_.empty()) return;
  // Compact the parsed prefix before growing, amortised O(1) per byte.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

bool FrameBuffer::fill(int fd) {
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      append(buf, static_cast<std::size_t>(n));
      // A short read drained the socket; skip the recv that would only
      // return EAGAIN. Level-triggered polling reports any later bytes.
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
    } else if (n == 0) {
      return false;  // peer closed
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }
}

std::optional<Frame> FrameBuffer::next() {
  if (!error_.empty()) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buffer_.data() + consumed_;
  const std::uint16_t magic =
      static_cast<std::uint16_t>(h[0]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(h[1]) << 8);
  if (magic != kWireMagic) {
    error_ = "bad frame magic";
    return std::nullopt;
  }
  if (h[2] != kWireVersion) {
    std::ostringstream os;
    os << "protocol version mismatch: got " << static_cast<int>(h[2])
       << ", want " << static_cast<int>(kWireVersion);
    error_ = os.str();
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(h[4 + i]) << (8 * i);
  if (len > kMaxPayloadBytes) {
    error_ = "frame payload exceeds size limit";
    return std::nullopt;
  }
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(h[3]);
  frame.payload.assign(h + kFrameHeaderBytes, h + kFrameHeaderBytes + len);
  consumed_ += kFrameHeaderBytes + len;
  return frame;
}

}  // namespace tailguard::net
