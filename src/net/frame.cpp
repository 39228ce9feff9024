#include "net/frame.h"

#include <cstring>

#include "ckpt/codec.h"

namespace oasis::net {
namespace {

/// One frame in one buffer: the header, the fixed fields `fields` writes,
/// then `payload`, so a model or update payload is copied exactly once.
template <typename Fields>
tensor::ByteBuffer make_frame(FrameType type, Fields&& fields,
                              const tensor::ByteBuffer& payload = {}) {
  ckpt::SectionWriter w;
  // The largest fixed-field block, a resume, is 33 bytes.
  w.reserve(kFrameHeaderBytes + 40 + payload.size());
  w.u32(0);  // body length, patched below
  w.u8(static_cast<std::uint8_t>(type));
  fields(w);
  w.append(payload);
  tensor::ByteBuffer out = w.take();
  const auto body_len =
      static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes);
  std::memcpy(out.data(), &body_len, sizeof(body_len));
  return out;
}

tensor::ByteBuffer make_frame(FrameType type) {
  return make_frame(type, [](ckpt::SectionWriter&) {});
}

/// Runs `read` over a whole frame body. A body too short for its fields, or
/// with bytes left over, is NetError{kMalformedFrame}: the codec's own
/// CheckpointError must not escape, since the server's read pump catches
/// only NetError.
template <typename Read>
auto read_body(const tensor::ByteBuffer& body, const char* what, Read&& read) {
  try {
    ckpt::SectionReader r(body, what);
    auto value = read(r);
    r.expect_end();
    return value;
  } catch (const CheckpointError&) {
    throw NetError(NetError::Reason::kMalformedFrame,
                   std::string(what) + " frame body of " +
                       std::to_string(body.size()) +
                       " bytes does not fit its layout");
  }
}

void write_magic(ckpt::SectionWriter& w) {
  w.u32(kProtocolMagic);
  w.u32(kProtocolVersion);
}

void check_magic(ckpt::SectionReader& r, const char* what) {
  const std::uint32_t magic = r.u32();
  if (magic != kProtocolMagic) {
    throw NetError(NetError::Reason::kBadMagic,
                   std::string(what) + " frame magic " + std::to_string(magic));
  }
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw NetError(NetError::Reason::kBadVersion,
                   std::string(what) + " frame speaks protocol version " +
                       std::to_string(version) + ", expected " +
                       std::to_string(kProtocolVersion));
  }
}

}  // namespace

bool frame_type_known(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kVersionReject);
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kModel: return "model";
    case FrameType::kUpdate: return "update";
    case FrameType::kRetryAfter: return "retry_after";
    case FrameType::kRoundResult: return "round_result";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kResume: return "resume";
    case FrameType::kResumeAck: return "resume_ack";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kVersionReject: return "version_reject";
  }
  return "unknown";
}

tensor::ByteBuffer encode_hello(const Hello& hello) {
  return make_frame(FrameType::kHello, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(hello.client_id);
  });
}

tensor::ByteBuffer encode_welcome(const Welcome& welcome) {
  return make_frame(FrameType::kWelcome, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(welcome.round);
  });
}

tensor::ByteBuffer encode_model(const fl::GlobalModelMessage& msg) {
  return make_frame(
      FrameType::kModel, [&](ckpt::SectionWriter& w) { w.u64(msg.round); },
      msg.model_state);
}

tensor::ByteBuffer encode_update(const fl::ClientUpdateMessage& msg) {
  return make_frame(
      FrameType::kUpdate,
      [&](ckpt::SectionWriter& w) {
        w.u64(msg.round);
        w.u64(msg.client_id);
        w.u64(msg.num_examples);
      },
      msg.gradients);
}

tensor::ByteBuffer encode_retry_after(std::uint64_t retry_after_ms) {
  return make_frame(FrameType::kRetryAfter,
                    [&](ckpt::SectionWriter& w) { w.u64(retry_after_ms); });
}

tensor::ByteBuffer encode_round_result(const RoundResult& result) {
  return make_frame(FrameType::kRoundResult, [&](ckpt::SectionWriter& w) {
    w.u64(result.round);
    w.u8(result.committed ? 1 : 0);
  });
}

tensor::ByteBuffer encode_goodbye() { return make_frame(FrameType::kGoodbye); }

tensor::ByteBuffer encode_resume(const Resume& resume) {
  return make_frame(FrameType::kResume, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(resume.client_id);
    w.u64(resume.last_round);
    w.u8(resume.has_update ? 1 : 0);
    w.u64(resume.update_round);
  });
}

tensor::ByteBuffer encode_resume_ack(const ResumeAck& ack) {
  return make_frame(FrameType::kResumeAck, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(ack.round);
    w.u8(static_cast<std::uint8_t>(ack.status));
  });
}

tensor::ByteBuffer encode_heartbeat() {
  return make_frame(FrameType::kHeartbeat);
}

tensor::ByteBuffer encode_version_reject(const VersionReject& reject) {
  return make_frame(FrameType::kVersionReject, [&](ckpt::SectionWriter& w) {
    w.u32(kProtocolMagic);
    w.u32(reject.supported_version);
  });
}

Hello decode_hello(const tensor::ByteBuffer& body) {
  return read_body(body, "hello", [](ckpt::SectionReader& r) {
    check_magic(r, "hello");
    return Hello{r.u64()};
  });
}

Welcome decode_welcome(const tensor::ByteBuffer& body) {
  return read_body(body, "welcome", [](ckpt::SectionReader& r) {
    check_magic(r, "welcome");
    return Welcome{r.u64()};
  });
}

fl::GlobalModelMessage decode_model(const tensor::ByteBuffer& body) {
  return read_body(body, "model", [](ckpt::SectionReader& r) {
    fl::GlobalModelMessage msg;
    msg.round = r.u64();
    msg.model_state = r.rest();
    return msg;
  });
}

fl::ClientUpdateMessage decode_update(const tensor::ByteBuffer& body) {
  return read_body(body, "update", [](ckpt::SectionReader& r) {
    fl::ClientUpdateMessage msg;
    msg.round = r.u64();
    msg.client_id = r.u64();
    msg.num_examples = r.u64();
    msg.gradients = r.rest();
    return msg;
  });
}

std::uint64_t decode_retry_after(const tensor::ByteBuffer& body) {
  return read_body(body, "retry_after",
                   [](ckpt::SectionReader& r) { return r.u64(); });
}

RoundResult decode_round_result(const tensor::ByteBuffer& body) {
  return read_body(body, "round_result", [](ckpt::SectionReader& r) {
    RoundResult result;
    result.round = r.u64();
    result.committed = r.u8() != 0;
    return result;
  });
}

Resume decode_resume(const tensor::ByteBuffer& body) {
  return read_body(body, "resume", [](ckpt::SectionReader& r) {
    check_magic(r, "resume");
    Resume resume;
    resume.client_id = r.u64();
    resume.last_round = r.u64();
    resume.has_update = r.u8() != 0;
    resume.update_round = r.u64();
    return resume;
  });
}

ResumeAck decode_resume_ack(const tensor::ByteBuffer& body) {
  return read_body(body, "resume_ack", [](ckpt::SectionReader& r) {
    check_magic(r, "resume_ack");
    ResumeAck ack;
    ack.round = r.u64();
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(ResumeStatus::kExpired)) {
      throw NetError(NetError::Reason::kMalformedFrame,
                     "resume_ack status byte " + std::to_string(status));
    }
    ack.status = static_cast<ResumeStatus>(status);
    return ack;
  });
}

VersionReject decode_version_reject(const tensor::ByteBuffer& body) {
  return read_body(body, "version_reject", [](ckpt::SectionReader& r) {
    const std::uint32_t magic = r.u32();
    if (magic != kProtocolMagic) {
      throw NetError(NetError::Reason::kBadMagic,
                     "version_reject frame magic " + std::to_string(magic));
    }
    return VersionReject{r.u32()};
  });
}

FrameDecoder::FrameDecoder(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - off_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, buf_.data() + off_, sizeof(body_len));
  // The header is validated BEFORE waiting for (or allocating) the body, so
  // a hostile length prefix or garbage type byte is rejected from the first
  // five bytes alone.
  if (body_len > max_body_bytes_) {
    throw NetError(NetError::Reason::kOversizedFrame,
                   "frame body of " + std::to_string(body_len) +
                       " bytes exceeds the " +
                       std::to_string(max_body_bytes_) + "-byte budget");
  }
  const std::uint8_t type = buf_[off_ + 4];
  if (!frame_type_known(type)) {
    throw NetError(NetError::Reason::kBadFrameType,
                   "unknown frame type byte " + std::to_string(type));
  }
  if (avail < kFrameHeaderBytes + body_len) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  const auto begin =
      buf_.begin() + static_cast<std::ptrdiff_t>(off_ + kFrameHeaderBytes);
  frame.body.assign(begin, begin + static_cast<std::ptrdiff_t>(body_len));
  off_ += kFrameHeaderBytes + body_len;
  return frame;
}

}  // namespace oasis::net
