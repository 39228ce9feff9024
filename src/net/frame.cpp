#include "net/frame.h"

#include <algorithm>
#include <cstring>

#include "ckpt/codec.h"

namespace oasis::net {
namespace {

/// The one head writer: header, then the fixed fields `fields` writes, with
/// a body length that counts the `payload_bytes` that follow the head.
template <typename Fields>
tensor::ByteBuffer frame_head(FrameType type, Fields&& fields,
                              std::size_t payload_bytes = 0) {
  ckpt::SectionWriter w;
  // The largest fixed-field block, a resume, is 33 bytes.
  w.reserve(kFrameHeaderBytes + 40);
  w.u32(0);  // body length, patched below
  w.u8(static_cast<std::uint8_t>(type));
  fields(w);
  tensor::ByteBuffer out = w.take();
  const auto body_len = static_cast<std::uint32_t>(
      out.size() - kFrameHeaderBytes + payload_bytes);
  std::memcpy(out.data(), &body_len, sizeof(body_len));
  return out;
}

tensor::ByteBuffer frame_head(FrameType type) {
  return frame_head(type, [](ckpt::SectionWriter&) {});
}

tensor::ByteBuffer model_head(std::uint64_t round, std::size_t state_bytes) {
  return frame_head(
      FrameType::kModel, [&](ckpt::SectionWriter& w) { w.u64(round); },
      state_bytes);
}

tensor::ByteBuffer update_head(const fl::ClientUpdateMessage& msg) {
  return frame_head(
      FrameType::kUpdate,
      [&](ckpt::SectionWriter& w) {
        w.u64(msg.round);
        w.u64(msg.client_id);
        w.u64(msg.num_examples);
      },
      msg.gradients.size());
}

/// A head and its payload in one buffer: the contiguous frame.
tensor::ByteBuffer joined(tensor::ByteBuffer head,
                          const tensor::ByteBuffer& payload) {
  head.insert(head.end(), payload.begin(), payload.end());
  return head;
}

/// Runs `read` over the fixed fields at the front of a frame body. A body
/// too short for its fields, or with bytes left over when no payload
/// follows (`payload_at` null), is NetError{kMalformedFrame}: the codec's
/// own CheckpointError must not escape, since the server's read pump
/// catches only NetError. With `payload_at`, the payload's offset lands
/// there.
template <typename Read>
auto read_body(const tensor::ByteBuffer& body, const char* what, Read&& read,
               std::size_t* payload_at = nullptr) {
  try {
    ckpt::SectionReader r(body, what);
    auto value = read(r);
    if (payload_at != nullptr) {
      *payload_at = body.size() - r.remaining();
    } else {
      r.expect_end();
    }
    return value;
  } catch (const CheckpointError&) {
    throw NetError(NetError::Reason::kMalformedFrame,
                   std::string(what) + " frame body of " +
                       std::to_string(body.size()) +
                       " bytes does not fit its layout");
  }
}

/// Drops the first `n` bytes of `body` in place: the rest is the payload.
tensor::ByteBuffer payload_of(tensor::ByteBuffer body, std::size_t n) {
  body.erase(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(n));
  return body;
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
  return frame_head(FrameType::kHello, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(hello.client_id);
  });
}

tensor::ByteBuffer encode_welcome(const Welcome& welcome) {
  return frame_head(FrameType::kWelcome, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(welcome.round);
  });
}

tensor::ByteBuffer encode_model(const fl::GlobalModelMessage& msg) {
  return joined(model_head(msg.round, msg.model_state.size()),
                msg.model_state);
}

tensor::ByteBuffer encode_update(const fl::ClientUpdateMessage& msg) {
  return joined(update_head(msg), msg.gradients);
}

OutFrame model_frame(std::uint64_t round,
                     std::shared_ptr<const tensor::ByteBuffer> state) {
  OutFrame frame(model_head(round, state->size()));
  frame.payload = std::move(state);
  return frame;
}

OutFrame update_frame(fl::ClientUpdateMessage msg) {
  OutFrame frame(update_head(msg));
  frame.payload =
      std::make_shared<const tensor::ByteBuffer>(std::move(msg.gradients));
  return frame;
}

tensor::ByteBuffer encode_retry_after(std::uint64_t retry_after_ms) {
  return frame_head(FrameType::kRetryAfter,
                    [&](ckpt::SectionWriter& w) { w.u64(retry_after_ms); });
}

tensor::ByteBuffer encode_round_result(const RoundResult& result) {
  return frame_head(FrameType::kRoundResult, [&](ckpt::SectionWriter& w) {
    w.u64(result.round);
    w.u8(result.committed ? 1 : 0);
  });
}

tensor::ByteBuffer encode_goodbye() { return frame_head(FrameType::kGoodbye); }

tensor::ByteBuffer encode_resume(const Resume& resume) {
  return frame_head(FrameType::kResume, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(resume.client_id);
    w.u64(resume.last_round);
    w.u8(resume.has_update ? 1 : 0);
    w.u64(resume.update_round);
  });
}

tensor::ByteBuffer encode_resume_ack(const ResumeAck& ack) {
  return frame_head(FrameType::kResumeAck, [&](ckpt::SectionWriter& w) {
    write_magic(w);
    w.u64(ack.round);
    w.u8(static_cast<std::uint8_t>(ack.status));
  });
}

tensor::ByteBuffer encode_heartbeat() {
  return frame_head(FrameType::kHeartbeat);
}

tensor::ByteBuffer encode_version_reject(const VersionReject& reject) {
  return frame_head(FrameType::kVersionReject, [&](ckpt::SectionWriter& w) {
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

fl::GlobalModelMessage decode_model(tensor::ByteBuffer body) {
  std::size_t at = 0;
  fl::GlobalModelMessage msg;
  msg.round = read_body(
      body, "model", [](ckpt::SectionReader& r) { return r.u64(); }, &at);
  msg.model_state = payload_of(std::move(body), at);
  return msg;
}

fl::ClientUpdateMessage decode_update(tensor::ByteBuffer body) {
  std::size_t at = 0;
  fl::ClientUpdateMessage msg = read_body(
      body, "update",
      [](ckpt::SectionReader& r) {
        fl::ClientUpdateMessage fields;
        fields.round = r.u64();
        fields.client_id = r.u64();
        fields.num_examples = r.u64();
        return fields;
      },
      &at);
  msg.gradients = payload_of(std::move(body), at);
  return msg;
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

bool Outbox::flush(const Socket& socket) {
  constexpr std::size_t kMaxPieces = 32;
  while (!frames_.empty()) {
    iovec pieces[kMaxPieces];
    std::size_t n = 0;
    std::size_t skip = sent_;
    const auto gather = [&](const tensor::ByteBuffer& bytes) {
      if (skip >= bytes.size()) {
        skip -= bytes.size();
        return;
      }
      pieces[n++] = iovec{const_cast<std::uint8_t*>(bytes.data()) + skip,
                          bytes.size() - skip};
      skip = 0;
    };
    for (auto it = frames_.begin();
         it != frames_.end() && n + 2 <= kMaxPieces; ++it) {
      gather(it->head);
      if (it->payload) gather(*it->payload);
    }
    const long put = write_some(socket, std::span<const iovec>(pieces, n));
    if (put == 0) return false;  // kernel buffer full; resume on POLLOUT
    sent_ += static_cast<std::size_t>(put);
    while (!frames_.empty() && sent_ >= frames_.front().size()) {
      sent_ -= frames_.front().size();
      frames_.pop_front();
    }
  }
  return true;
}

void Outbox::repoint(const std::shared_ptr<const tensor::ByteBuffer>& from,
                     const std::shared_ptr<const tensor::ByteBuffer>& to) {
  for (auto& frame : frames_) {
    if (frame.payload == from) frame.payload = to;
  }
}

FrameDecoder::FrameDecoder(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

void FrameDecoder::open_frame() {
  // Validated BEFORE waiting for (or allocating) the body: a hostile length
  // prefix or garbage type byte is rejected from the first five bytes.
  std::memcpy(&body_len_, head_, sizeof(body_len_));
  if (body_len_ > max_body_bytes_) {
    error_.emplace(NetError::Reason::kOversizedFrame,
                   "frame body of " + std::to_string(body_len_) +
                       " bytes exceeds the " +
                       std::to_string(max_body_bytes_) + "-byte budget");
  } else if (!frame_type_known(head_[4])) {
    error_.emplace(NetError::Reason::kBadFrameType,
                   "unknown frame type byte " + std::to_string(head_[4]));
  } else {
    open_.type = static_cast<FrameType>(head_[4]);
  }
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // A body's capacity follows the bytes that arrived: at most 8× them and
  // never past the claimed length, so a header alone buys at most 64 KiB.
  constexpr std::size_t kFloor = 64 << 10;
  tensor::ByteBuffer& body = open_.body;
  while (n > 0 && !error_) {
    const bool in_head = head_len_ < kFrameHeaderBytes;
    const std::size_t take = std::min(
        n, in_head ? kFrameHeaderBytes - head_len_ : body_len_ - body.size());
    if (in_head) {
      std::memcpy(head_ + head_len_, data, take);
      head_len_ += take;
      if (head_len_ == kFrameHeaderBytes) open_frame();
    } else {
      if (body.size() + take > body.capacity()) {
        body.reserve(std::min<std::size_t>(
            body_len_, std::max(kFloor, 8 * (body.size() + take))));
      }
      body.insert(body.end(), data, data + take);
    }
    data += take;
    n -= take;
    if (head_len_ == kFrameHeaderBytes && !error_ &&
        body.size() == body_len_) {
      ready_.push_back(std::move(open_));
      open_ = Frame{};
      head_len_ = 0;
    }
  }
}

std::optional<Frame> FrameDecoder::next() {
  if (!ready_.empty()) {
    Frame frame = std::move(ready_.front());
    ready_.pop_front();
    return frame;
  }
  if (error_) throw *error_;
  return std::nullopt;
}

}  // namespace oasis::net
