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
// FrameDecoder is incremental: feed() whatever bytes the socket produced,
// next() yields complete frames. Malformed input (oversized length prefix,
// unknown type byte) throws NetError at the earliest byte that proves the
// stream damaged, BEFORE any allocation proportional to the hostile length —
// the same discipline as tensor/serialize.h. A connection that closes while
// mid_frame() is the drop-mid-frame fault and maps to kTruncatedFrame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fl/message.h"
#include "net/error.h"
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
// Each encode_* returns the COMPLETE frame (header included), ready to queue
// on a connection's outbox.

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

// --- Decoding ---------------------------------------------------------------
// Each decode_* consumes a frame BODY (header already stripped by the
// decoder) and throws NetError{kMalformedFrame} on short/overlong bodies,
// kBadMagic/kBadVersion on handshake mismatches.

Hello decode_hello(const tensor::ByteBuffer& body);
Welcome decode_welcome(const tensor::ByteBuffer& body);
fl::GlobalModelMessage decode_model(const tensor::ByteBuffer& body);
fl::ClientUpdateMessage decode_update(const tensor::ByteBuffer& body);
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

  /// Appends raw socket bytes. Never throws; validation happens in next().
  void feed(const std::uint8_t* data, std::size_t n);

  /// Returns the next complete frame, or nullopt when more bytes are needed.
  /// Throws NetError{kOversizedFrame} the moment a length prefix exceeds the
  /// budget and NetError{kBadFrameType} on an unknown type byte — both
  /// before the body is buffered or allocated for.
  std::optional<Frame> next();

  /// True when a partial frame is buffered — a clean peer close at this
  /// point is a truncated-frame error, not a graceful shutdown.
  [[nodiscard]] bool mid_frame() const { return buf_.size() > off_; }

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::size_t max_body_bytes_;
  tensor::ByteBuffer buf_;
  std::size_t off_ = 0;  // consumed prefix of buf_
};

}  // namespace oasis::net
