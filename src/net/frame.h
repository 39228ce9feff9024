// Length-prefixed framing of the FL wire protocol.
//
// Every message travels as one frame:
//
//   u32 body_len (little-endian) | u8 type | body[body_len]
//
// The body of kModel / kUpdate frames embeds the existing serialized-tensor
// payloads (tensor::serialize_tensors with its CRC32C trailer), so the
// hardened deserialization boundary the in-process protocol already has is
// exactly what travels over TCP — the net layer adds frame boundaries and a
// handshake, never a second tensor format. Nor a second byte codec: headers
// and fixed fields are written and read with the checkpoint codec
// (ckpt::SectionWriter / SectionReader), whose integers are little-endian.
//
// Payloads are not copied on the way (DESIGN.md §5p): a queued OutFrame is
// a head plus a payload shared by reference, written where it lies, and
// FrameDecoder hands each body out by move for decode_model/decode_update
// to strip in place.
//
// FrameDecoder is incremental: feed() whatever bytes the socket produced,
// next() yields complete frames. Malformed input (oversized length prefix,
// unknown type byte) throws NetError at the earliest byte that proves the
// stream damaged, BEFORE any allocation proportional to the hostile length —
// the same discipline as tensor/serialize.h: a body's allocation tracks the
// bytes received. A connection that closes while mid_frame() is the
// drop-mid-frame fault and maps to kTruncatedFrame.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "fl/message.h"
#include "net/error.h"
#include "net/socket.h"
#include "tensor/serialize.h"

namespace oasis::net {

/// First u32 of every kHello/kWelcome body ("OAS1" little-endian).
inline constexpr std::uint32_t kProtocolMagic = 0x3153414FU;
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Frame header: u32 body length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Default ceiling on one frame's body. Model states and gradient updates
/// for the paper's architectures are well under 1 MiB; 64 MiB leaves room
/// for large federations while keeping a hostile length prefix from
/// triggering a multi-exabyte allocation.
inline constexpr std::size_t kDefaultMaxBodyBytes = 64UL << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,        // client → server: magic, version, client id
  kWelcome = 2,      // server → client: magic, version, current round
  kModel = 3,        // server → client: GlobalModelMessage
  kUpdate = 4,       // client → server: ClientUpdateMessage
  kRetryAfter = 5,   // server → client: backpressure, retry-after hint (ms)
  kRoundResult = 6,  // server → client: round id + committed flag
  kGoodbye = 7,      // server → client: serving finished, drain and close
  kResume = 8,       // client → server: session-resume handshake
  kResumeAck = 9,    // server → client: resume verdict for the in-flight update
  kHeartbeat = 10,   // either direction: liveness; refreshes idle deadlines
  kVersionReject = 11,  // server → client: unsupported version, then close
};

/// True when `t` names a frame type this protocol version understands.
bool frame_type_known(std::uint8_t t);
const char* to_string(FrameType t);

/// One complete decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  tensor::ByteBuffer body;
};

/// Client handshake contents.
struct Hello {
  std::uint64_t client_id = 0;
};

/// Server handshake reply.
struct Welcome {
  std::uint64_t round = 0;
};

/// Round outcome notification (per participating connection).
struct RoundResult {
  std::uint64_t round = 0;
  bool committed = false;
};

/// Session-resume handshake: a reconnecting client replaces its hello with
/// this so the server can resolve the lost-ack ambiguity — "I computed an
/// update for round `update_round` but the connection died before I saw a
/// result; did you take it?" — deterministically and without double-counting.
struct Resume {
  std::uint64_t client_id = 0;
  /// Last round id the client observed (welcome or model dispatch).
  std::uint64_t last_round = 0;
  /// True when the client still holds a computed update it never saw acked.
  bool has_update = false;
  /// Round that cached update was computed for (meaningful iff has_update).
  std::uint64_t update_round = 0;
};

/// Server verdict on the resume's claimed in-flight update.
enum class ResumeStatus : std::uint8_t {
  kNone = 0,      // no in-flight state to resolve; park for a later round
  kPending = 1,   // the update is wanted and NOT held — retransmit it
  kAccepted = 2,  // already durably folded; retransmitting would be rejected
  kExpired = 3,   // the round it targeted has closed; discard the cache
};

struct ResumeAck {
  std::uint64_t round = 0;  // server's current protocol round
  ResumeStatus status = ResumeStatus::kNone;
};

/// Carried by kVersionReject so an incompatible client can report what the
/// server actually speaks instead of dying on a silent close.
struct VersionReject {
  std::uint32_t supported_version = 0;
};

// --- Encoding ---------------------------------------------------------------
// Each encode_* returns the COMPLETE frame (header included), contiguous.

tensor::ByteBuffer encode_hello(const Hello& hello);
tensor::ByteBuffer encode_welcome(const Welcome& welcome);
tensor::ByteBuffer encode_model(const fl::GlobalModelMessage& msg);
tensor::ByteBuffer encode_update(const fl::ClientUpdateMessage& msg);
tensor::ByteBuffer encode_retry_after(std::uint64_t retry_after_ms);
tensor::ByteBuffer encode_round_result(const RoundResult& result);
tensor::ByteBuffer encode_goodbye();
tensor::ByteBuffer encode_resume(const Resume& resume);
tensor::ByteBuffer encode_resume_ack(const ResumeAck& ack);
tensor::ByteBuffer encode_heartbeat();
tensor::ByteBuffer encode_version_reject(const VersionReject& reject);

/// A frame as it is queued for the wire: `head` (header and fixed fields;
/// a whole encode_* frame converts), then a `payload` frames may share.
struct OutFrame {
  OutFrame(tensor::ByteBuffer bytes) : head(std::move(bytes)) {}  // NOLINT
  [[nodiscard]] std::size_t size() const {
    return head.size() + (payload ? payload->size() : 0);
  }

  tensor::ByteBuffer head;
  std::shared_ptr<const tensor::ByteBuffer> payload;
};

/// encode_model's bytes, carrying `state` by reference.
OutFrame model_frame(std::uint64_t round,
                     std::shared_ptr<const tensor::ByteBuffer> state);
/// encode_update's bytes, the gradients moved into the shared payload.
OutFrame update_frame(fl::ClientUpdateMessage msg);

/// A connection's send queue; each flush gathers heads and payloads into
/// one scatter-gather write.
class Outbox {
 public:
  void push(OutFrame frame) { frames_.push_back(std::move(frame)); }
  /// Writes what the socket takes (write_some's contract, NetError{kIo}
  /// included). True once everything queued is on the wire.
  bool flush(const Socket& socket);
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  void clear() {
    frames_.clear();
    sent_ = 0;
  }
  /// Points every queued frame that carries `from` at `to` instead.
  void repoint(const std::shared_ptr<const tensor::ByteBuffer>& from,
               const std::shared_ptr<const tensor::ByteBuffer>& to);

 private:
  std::deque<OutFrame> frames_;
  std::size_t sent_ = 0;  // bytes of frames_.front() already written
};

// --- Decoding ---------------------------------------------------------------
// Each decode_* consumes a frame BODY (header already stripped by the
// decoder) and throws NetError{kMalformedFrame} on short/overlong bodies,
// kBadMagic/kBadVersion on handshake mismatches.

Hello decode_hello(const tensor::ByteBuffer& body);
Welcome decode_welcome(const tensor::ByteBuffer& body);
/// Sinks: the fixed fields are dropped in place and the body's own buffer
/// becomes the payload.
fl::GlobalModelMessage decode_model(tensor::ByteBuffer body);
fl::ClientUpdateMessage decode_update(tensor::ByteBuffer body);
std::uint64_t decode_retry_after(const tensor::ByteBuffer& body);
RoundResult decode_round_result(const tensor::ByteBuffer& body);
Resume decode_resume(const tensor::ByteBuffer& body);
ResumeAck decode_resume_ack(const tensor::ByteBuffer& body);
/// Checks magic only — the whole point of this frame is a version mismatch,
/// so the version word is DATA here, not a validity condition.
VersionReject decode_version_reject(const tensor::ByteBuffer& body);

/// Incremental frame parser over a byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_body_bytes = kDefaultMaxBodyBytes);

  /// Appends raw socket bytes to the frames they belong to. Never throws;
  /// validation happens in next().
  void feed(const std::uint8_t* data, std::size_t n);

  /// Returns the next complete frame (its body moved out), or nullopt when
  /// more bytes are needed. Throws NetError{kOversizedFrame} the moment a
  /// length prefix exceeds the budget and NetError{kBadFrameType} on an
  /// unknown type byte — both before the body is buffered or allocated for.
  std::optional<Frame> next();

  /// True when a partial frame is buffered — a clean peer close at this
  /// point is a truncated-frame error, not a graceful shutdown.
  [[nodiscard]] bool mid_frame() const {
    return head_len_ > 0 || !ready_.empty();
  }

 private:
  void open_frame();  // validates a complete header

  std::size_t max_body_bytes_;
  std::uint8_t head_[kFrameHeaderBytes] = {};
  std::size_t head_len_ = 0;       // header bytes of the open frame
  std::uint32_t body_len_ = 0;     // its claimed body length
  Frame open_;                     // the frame being received
  std::deque<Frame> ready_;        // complete, not yet handed out
  std::optional<NetError> error_;  // the stream is damaged from here on
};

}  // namespace oasis::net
