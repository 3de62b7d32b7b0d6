// TailGuard wire protocol: compact length-prefixed binary frames.
//
// Every message travels as one frame:
//
//   offset  size  field
//   0       2     magic 0x5447 ("TG", little-endian u16)
//   2       1     protocol version (kWireVersion)
//   3       1     message type (MsgType)
//   4       4     payload length in bytes (little-endian u32)
//   8       n     payload
//
// Payloads are flat little-endian scalars (doubles as IEEE-754 bit patterns)
// plus u32-length-prefixed strings — no padding, no host-endianness leakage.
// Unknown message types within a known protocol version are skippable (the
// length prefix delimits them), which is what makes the framing versioned:
// new message types can be added without breaking old peers, while a version
// byte mismatch is a hard error.
//
// All times on the wire are *relative* durations in milliseconds; the two
// ends never exchange absolute clock readings, so the protocol is immune to
// clock offset between the dispatcher and the task servers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"

namespace tailguard {

/// What a task-server daemon observed since its previous GossipDelta, as
/// increments a receiver applies once: per-server post-queuing-time samples
/// (they feed the streaming CDF models) and admission-window dequeue counts,
/// plus a last-writer-wins queue-depth gauge per server.
struct ShardDelta {
  /// Unused: daemons send 0 and the dispatcher ignores it. It stays so the
  /// frame layout does not change.
  std::uint32_t origin = 0;
  /// Strictly increasing along a connection; the dispatcher drops seq <=
  /// the last one it absorbed there.
  std::uint64_t seq = 0;

  struct ServerEntry {
    ServerId server = 0;
    /// New post-queuing-time observations since the previous delta. May be
    /// thinned to a cap; `samples_dropped` counts what the thinning lost.
    std::vector<double> samples_ms;
    std::uint64_t samples_dropped = 0;
    /// The sending daemon's queue depth on this server, valid only when
    /// has_load. A gauge: receivers overwrite, never add. The dispatcher
    /// folds it into its placement candidates' loads.
    std::uint32_t load_estimate = 0;
    bool has_load = false;

    friend bool operator==(const ServerEntry&, const ServerEntry&) = default;
  };
  std::vector<ServerEntry> servers;

  /// Admission-window increments since the previous delta.
  std::uint64_t dequeues_recorded = 0;
  std::uint64_t dequeues_missed = 0;

  bool empty() const {
    return servers.empty() && dequeues_recorded == 0 && dequeues_missed == 0;
  }

  friend bool operator==(const ShardDelta&, const ShardDelta&) = default;
};

}  // namespace tailguard

namespace tailguard::net {

inline constexpr std::uint16_t kWireMagic = 0x5447;  // "TG"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Upper bound on a single payload; a peer announcing more is corrupt or
/// hostile, and the connection is dropped rather than the allocation made.
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,         ///< dispatcher -> server: version handshake
  kHelloAck = 2,      ///< server -> dispatcher: handshake reply
  kSubmitTask = 3,    ///< dispatcher -> server: enqueue one task
  kTaskDone = 4,      ///< server -> dispatcher: one task finished
  // Retired, never reuse: 5 ModelSync, 8 GossipHello (old daemons send them).
  kStatsRequest = 6,  ///< dispatcher -> server: poll server stats
  kStatsResponse = 7, ///< server -> dispatcher: stats snapshot
  kGossipDelta = 9,   ///< server -> dispatcher: ShardDelta of observations
};

/// Handshake. The version is repeated inside the payload so a future frame
/// format can still negotiate down.
struct HelloMsg {
  std::uint32_t protocol_version = kWireVersion;
  std::string peer_name;

  friend bool operator==(const HelloMsg&, const HelloMsg&) = default;
};

struct HelloAckMsg {
  std::uint32_t protocol_version = kWireVersion;
  std::uint8_t policy = 0;  ///< Policy the server queues under (informational)
  std::uint32_t num_executors = 1;

  friend bool operator==(const HelloAckMsg&, const HelloAckMsg&) = default;
};

/// One task of a fanned-out query. The queuing deadline is shipped as a
/// duration relative to receipt: the server stamps `local_now +
/// relative_deadline_ms` into its policy queue, mirroring Eq. 6 with the
/// network delay folded into the budget.
struct SubmitTaskMsg {
  TaskId task = 0;
  QueryId query = 0;
  ClassId cls = 0;
  TimeMs relative_deadline_ms = 0.0;
  TimeMs simulated_service_ms = 0.0;

  friend bool operator==(const SubmitTaskMsg&, const SubmitTaskMsg&) = default;
};

/// Completion report. `queue_ms` is time spent queued (enqueue->dequeue) and
/// `service_ms` the post-queuing time (dequeue->complete) — the observation
/// the dispatcher's per-server CDF model absorbs (paper §III.B.2).
struct TaskDoneMsg {
  TaskId task = 0;
  QueryId query = 0;
  TimeMs queue_ms = 0.0;
  TimeMs service_ms = 0.0;
  bool missed_deadline = false;

  friend bool operator==(const TaskDoneMsg&, const TaskDoneMsg&) = default;
};

/// One ShardDelta on the wire, the daemon's one observation stream besides
/// TaskDone: incremental CDF samples, admission-window increments and a load
/// gauge accumulated since the sender's previous delta. A connection's first
/// delta may be the rejoin backfill, samples only, of completions whose owner
/// connection was gone. Seqs increase along a connection; receivers drop seq
/// <= last seen. Sample times are relative durations (ms), like every other
/// time on the wire.
struct GossipDeltaMsg {
  ShardDelta delta;

  friend bool operator==(const GossipDeltaMsg&, const GossipDeltaMsg&) =
      default;
};

struct StatsRequestMsg {
  friend bool operator==(const StatsRequestMsg&, const StatsRequestMsg&) =
      default;
};

struct StatsResponseMsg {
  std::uint32_t queue_depth = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_missed_deadline = 0;

  friend bool operator==(const StatsResponseMsg&, const StatsResponseMsg&) =
      default;
};

// ------------------------------------------------------------------ encode

// encode_into appends one complete frame (header + payload, built in place —
// no intermediate payload buffer) to `out`, which may already hold other
// frames: this is the batching primitive the net loops use to coalesce a
// burst of messages into one contiguous send buffer. The encode() forms are
// conveniences for tests and one-off frames.

void encode_into(const HelloMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const HelloAckMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const SubmitTaskMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const TaskDoneMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const StatsRequestMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const StatsResponseMsg& msg, std::vector<std::uint8_t>& out);
void encode_into(const GossipDeltaMsg& msg, std::vector<std::uint8_t>& out);

std::vector<std::uint8_t> encode(const HelloMsg& msg);
std::vector<std::uint8_t> encode(const HelloAckMsg& msg);
std::vector<std::uint8_t> encode(const SubmitTaskMsg& msg);
std::vector<std::uint8_t> encode(const TaskDoneMsg& msg);
std::vector<std::uint8_t> encode(const StatsRequestMsg& msg);
std::vector<std::uint8_t> encode(const StatsResponseMsg& msg);
std::vector<std::uint8_t> encode(const GossipDeltaMsg& msg);

// ------------------------------------------------------------------ decode

/// One parsed frame: type plus raw payload bytes.
struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;
};

/// Payload decoders; return false on truncated/trailing/corrupt payloads,
/// including a non-finite f64 field and a GossipDelta with more dequeues
/// missed than recorded.
bool decode(const Frame& frame, HelloMsg* out);
bool decode(const Frame& frame, HelloAckMsg* out);
bool decode(const Frame& frame, SubmitTaskMsg* out);
bool decode(const Frame& frame, TaskDoneMsg* out);
bool decode(const Frame& frame, StatsRequestMsg* out);
bool decode(const Frame& frame, StatsResponseMsg* out);
bool decode(const Frame& frame, GossipDeltaMsg* out);

/// Incremental frame reassembly over a byte stream. Feed whatever the socket
/// produced; pop complete frames. A magic/version mismatch or an oversized
/// length poisons the buffer (error() becomes non-empty) and the connection
/// should be closed — framing cannot be re-synchronised once corrupt.
class FrameBuffer {
 public:
  void append(const std::uint8_t* data, std::size_t n);

  /// Next complete frame, or nullopt when more bytes are needed or the
  /// stream is poisoned.
  std::optional<Frame> next();

  /// Non-empty once the stream is unrecoverably corrupt.
  const std::string& error() const { return error_; }

  std::size_t buffered_bytes() const { return buffer_.size(); }

  /// Appends whatever `fd` has ready, in 16 KiB reads, until a short read or
  /// EAGAIN. Retries EINTR. Returns false on EOF or a socket error: close
  /// the connection. Mirrors SendQueue::flush(fd) on the read side.
  bool fill(int fd);

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< parsed prefix, compacted lazily
  std::string error_;
};

}  // namespace tailguard::net
