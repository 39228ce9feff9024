// Socket serving layer tests: frame codec round-trips, decoder fuzz sweeps
// (every truncation + seeded bit flips, meant to run under ASan), loopback
// rounds on a virtual clock with bit-identity against the in-process server,
// backpressure/cutover behavior, slowloris deadlines, and a fork-based
// multi-process federation proved byte-identical to fl::Simulation. The
// payload byte paths (DESIGN.md §5p) are held to their allocation budget by
// a replacement operator new that counts what one armed thread allocates.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/manager.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "test_util.h"

// Allocation probe. While a thread has armed it, every operator new on
// that thread of at least t_probe_min bytes is counted, and the largest
// request is kept. Every form of new and delete goes to malloc/free, so the
// pairs stay matched under the sanitizers' own allocators.
namespace {
thread_local bool t_probe_armed = false;
thread_local std::size_t t_probe_min = 0;
thread_local std::size_t t_probe_count = 0;
thread_local std::size_t t_probe_largest = 0;

void* probed_alloc(std::size_t n) noexcept {
  if (t_probe_armed) {
    if (n >= t_probe_min) ++t_probe_count;
    t_probe_largest = std::max(t_probe_largest, n);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* probed_alloc_or_throw(std::size_t n) {
  if (void* p = probed_alloc(n)) return p;
  throw std::bad_alloc();
}

/// Arms the probe on the calling thread for the guard's lifetime.
struct AllocProbe {
  explicit AllocProbe(std::size_t min_bytes) {
    t_probe_min = min_bytes;
    t_probe_count = 0;
    t_probe_largest = 0;
    t_probe_armed = true;
  }
  ~AllocProbe() { t_probe_armed = false; }
  AllocProbe(const AllocProbe&) = delete;
  AllocProbe& operator=(const AllocProbe&) = delete;
  [[nodiscard]] std::size_t count() const { return t_probe_count; }
  [[nodiscard]] std::size_t largest() const { return t_probe_largest; }
};
}  // namespace

void* operator new(std::size_t n) { return probed_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return probed_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return probed_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return probed_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace oasis::net {
namespace {

using testutil::ScratchDir;

data::InMemoryDataset tiny_dataset(index_t n, index_t classes,
                                   std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = classes;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = n;
  cfg.test_per_class = 0;
  cfg.seed = seed;
  return data::generate(cfg).train;
}

fl::ModelFactory tiny_factory(std::uint64_t seed) {
  return [seed] {
    common::Rng rng(seed);
    return nn::make_mlp({3, 8, 8}, {16}, 4, rng);
  };
}

std::unique_ptr<fl::Client> make_client(std::uint64_t id) {
  return std::make_unique<fl::Client>(
      id, tiny_dataset(6, 4, 11 + id), tiny_factory(5), /*batch_size=*/4,
      std::make_shared<fl::IdentityPreprocessor>(), common::Rng(1000 + id));
}

/// A connected AF_UNIX stream pair, both ends non-blocking, the writer's
/// send buffer as small as the kernel allows: writes stop short often.
std::pair<Socket, Socket> tight_socketpair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int small = 1024;
  EXPECT_EQ(
      ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  for (const int fd : fds) {
    EXPECT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
  }
  return {Socket(fds[0]), Socket(fds[1])};
}

/// Reads what `reader` holds, at most `most` bytes, onto `got`.
void drain(const Socket& reader, tensor::ByteBuffer& got, std::size_t most) {
  std::uint8_t buf[512];
  while (most > 0) {
    const long n = read_some(reader, buf, std::min(most, sizeof(buf)));
    if (n <= 0) return;
    got.insert(got.end(), buf, buf + n);
    most -= static_cast<std::size_t>(n);
  }
}

/// A real, valid kUpdate frame (header + body) for the fuzz sweeps.
tensor::ByteBuffer valid_update_frame() {
  fl::ClientUpdateMessage msg;
  msg.round = 3;
  msg.client_id = 7;
  msg.num_examples = 4;
  msg.gradients = tensor::serialize_tensors(
      {tensor::Tensor({2, 3}, {1.0, -2.0, 3.0, -4.0, 5.0, -6.0}),
       tensor::Tensor({2}, {0.5, -0.5})});
  return encode_update(msg);
}

std::uint64_t counter_value(const std::string& name) {
  return obs::counter(name).value();
}

TEST(Frame, RoundTripsEveryType) {
  {
    const auto bytes = encode_hello(Hello{42});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kHello);
    EXPECT_EQ(decode_hello(f->body).client_id, 42u);
  }
  {
    const auto bytes = encode_welcome(Welcome{9});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decode_welcome(d.next()->body).round, 9u);
  }
  {
    fl::GlobalModelMessage msg;
    msg.round = 5;
    msg.model_state = tensor::serialize_tensors({tensor::Tensor({2}, {1., 2.})});
    const auto bytes = encode_model(msg);
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const auto back = decode_model(d.next()->body);
    EXPECT_EQ(back.round, 5u);
    EXPECT_EQ(back.model_state, msg.model_state);
  }
  {
    const auto bytes = valid_update_frame();
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kUpdate);
    const auto back = decode_update(f->body);
    EXPECT_EQ(back.round, 3u);
    EXPECT_EQ(back.client_id, 7u);
    EXPECT_EQ(back.num_examples, 4u);
    // The embedded tensor payload survives byte-for-byte (CRC intact).
    EXPECT_NO_THROW((void)tensor::scan_tensors(back.gradients));
  }
  {
    const auto bytes = encode_retry_after(350);
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decode_retry_after(d.next()->body), 350u);
  }
  {
    const auto bytes = encode_round_result(RoundResult{12, true});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const auto back = decode_round_result(d.next()->body);
    EXPECT_EQ(back.round, 12u);
    EXPECT_TRUE(back.committed);
  }
  {
    const auto bytes = encode_goodbye();
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_EQ(d.next()->type, FrameType::kGoodbye);
    EXPECT_FALSE(d.mid_frame());
  }
}

TEST(Frame, HandshakeRejectsBadMagicAndVersion) {
  auto hello = encode_hello(Hello{1});
  // Body layout: magic u32 | version u32 | id u64, after the 5-byte header.
  auto bad_magic = hello;
  bad_magic[kFrameHeaderBytes] ^= 0xFF;
  auto bad_version = hello;
  bad_version[kFrameHeaderBytes + 4] ^= 0xFF;
  const auto body_of = [](const tensor::ByteBuffer& frame) {
    FrameDecoder d;
    d.feed(frame.data(), frame.size());
    return d.next()->body;
  };
  EXPECT_THROW((void)decode_hello(body_of(bad_magic)), NetError);
  EXPECT_THROW((void)decode_hello(body_of(bad_version)), NetError);
  try {
    (void)decode_hello(body_of(bad_magic));
    FAIL() << "bad magic must throw";
  } catch (const NetError& e) {
    EXPECT_EQ(e.reason(), NetError::Reason::kBadMagic);
  }
}

// Every wire byte of the 11 frame types at fixed inputs, pinned by CRC32C
// (header included), so a change to the frame codec cannot move a byte
// unnoticed. Each fixed-layout body one byte short or one byte long is a
// typed kMalformedFrame, never a codec error the server would not catch.
TEST(Frame, WireBytesArePinned) {
  fl::GlobalModelMessage model;
  model.round = 5;
  model.model_state =
      tensor::serialize_tensors({tensor::Tensor({2}, {1.0, 2.0})});
  const std::vector<std::pair<tensor::ByteBuffer, std::uint32_t>> pins = {
      {encode_hello(Hello{42}), 0x8F56F552U},
      {encode_welcome(Welcome{9}), 0xB93F7343U},
      {encode_model(model), 0x5591C7EAU},
      {valid_update_frame(), 0x585A9A49U},
      {encode_retry_after(350), 0x12FC96F1U},
      {encode_round_result(RoundResult{12, true}), 0xAD7462FEU},
      {encode_goodbye(), 0x91B812DEU},
      {encode_resume(Resume{17, 4, true, 3}), 0x35C19685U},
      {encode_resume_ack(ResumeAck{8, ResumeStatus::kAccepted}), 0x230CDD44U},
      {encode_heartbeat(), 0x2E905E0DU},
      {encode_version_reject(VersionReject{kProtocolVersion}), 0xA546BE42U},
  };
  for (const auto& [frame, crc] : pins) {
    EXPECT_EQ(common::crc32c(frame.data(), frame.size()), crc)
        << "frame type " << static_cast<int>(frame[4]) << " moved on the wire";
  }

  const auto expect_malformed = [](const char* what, auto&& decode) {
    try {
      decode();
      ADD_FAILURE() << what << " must throw";
    } catch (const NetError& e) {
      EXPECT_EQ(e.reason(), NetError::Reason::kMalformedFrame) << what;
    }
  };
  struct FixedLayout {
    const char* what;
    const tensor::ByteBuffer& frame;
    std::function<void(const tensor::ByteBuffer&)> decode;
  };
  const FixedLayout fixed[] = {
      {"hello", pins[0].first, [](const auto& b) { (void)decode_hello(b); }},
      {"welcome", pins[1].first,
       [](const auto& b) { (void)decode_welcome(b); }},
      {"retry_after", pins[4].first,
       [](const auto& b) { (void)decode_retry_after(b); }},
      {"round_result", pins[5].first,
       [](const auto& b) { (void)decode_round_result(b); }},
      {"resume", pins[7].first, [](const auto& b) { (void)decode_resume(b); }},
      {"resume_ack", pins[8].first,
       [](const auto& b) { (void)decode_resume_ack(b); }},
      {"version_reject", pins[10].first,
       [](const auto& b) { (void)decode_version_reject(b); }},
  };
  for (const auto& [what, frame, decode] : fixed) {
    const tensor::ByteBuffer body(
        frame.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        frame.end());
    ASSERT_NO_THROW(decode(body)) << what;
    tensor::ByteBuffer shorter(body.begin(), body.end() - 1);
    tensor::ByteBuffer longer = body;
    longer.push_back(0);
    expect_malformed(what, [&] { decode(shorter); });
    expect_malformed(what, [&] { decode(longer); });
  }
  // Model and update bodies carry a payload of any length after their
  // fixed fields; one byte short of those fields is malformed.
  expect_malformed("model", [] {
    (void)decode_model(tensor::ByteBuffer(7, 0));
  });
  expect_malformed("update", [] {
    (void)decode_update(tensor::ByteBuffer(23, 0));
  });
}

TEST(FrameDecoder, ReassemblesFromSingleByteFeeds) {
  // Two frames back to back, delivered one byte at a time — the decoder must
  // produce exactly both, in order, regardless of feed chunking.
  auto stream = encode_hello(Hello{5});
  const auto second = encode_retry_after(99);
  stream.insert(stream.end(), second.begin(), second.end());
  FrameDecoder d;
  std::vector<Frame> frames;
  for (const auto byte : stream) {
    d.feed(&byte, 1);
    while (auto f = d.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(decode_retry_after(frames[1].body), 99u);
  EXPECT_FALSE(d.mid_frame());
}

TEST(FrameDecoder, OversizedLengthThrowsBeforeBodyArrives) {
  // Header advertising a body one byte past the budget: the decoder must
  // throw from the header alone, before any body bytes exist to buffer.
  FrameDecoder d(/*max_body_bytes=*/1024);
  const std::uint32_t len = 1025;
  std::uint8_t header[kFrameHeaderBytes];
  header[0] = static_cast<std::uint8_t>(len & 0xFF);
  header[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  header[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  header[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
  header[4] = static_cast<std::uint8_t>(FrameType::kUpdate);
  d.feed(header, sizeof(header));
  try {
    (void)d.next();
    FAIL() << "oversized length must throw";
  } catch (const NetError& e) {
    EXPECT_EQ(e.reason(), NetError::Reason::kOversizedFrame);
  }
}

TEST(FrameDecoder, UnknownTypeByteThrows) {
  std::uint8_t header[kFrameHeaderBytes] = {0, 0, 0, 0, 0xEE};
  FrameDecoder d;
  d.feed(header, sizeof(header));
  try {
    (void)d.next();
    FAIL() << "unknown frame type must throw";
  } catch (const NetError& e) {
    EXPECT_EQ(e.reason(), NetError::Reason::kBadFrameType);
  }
}

// A body's allocation tracks the bytes that arrived, never the claimed
// length alone: a header claiming the whole 64 MiB budget, then 1 KB of
// body, must leave the decoder holding kilobytes. A large body that does
// arrive grows in a few steps and is handed out whole.
TEST(FrameDecoder, ClaimedLengthBuysNoAllocationBeyondTheBytesReceived) {
  const auto header = [](std::uint32_t len) {
    std::vector<std::uint8_t> h(kFrameHeaderBytes);
    std::memcpy(h.data(), &len, sizeof(len));
    h[4] = static_cast<std::uint8_t>(FrameType::kUpdate);
    return h;
  };
  const std::vector<std::uint8_t> body(1 << 20, 0x5A);
  {
    FrameDecoder d;
    const auto h = header(static_cast<std::uint32_t>(kDefaultMaxBodyBytes));
    const AllocProbe probe(0);
    d.feed(h.data(), h.size());
    d.feed(body.data(), 1024);
    EXPECT_FALSE(d.next().has_value());
    EXPECT_TRUE(d.mid_frame());
    EXPECT_LE(probe.largest(), std::size_t{64} << 10)
        << "a 5-byte header bought a large allocation";
  }
  FrameDecoder d;
  const auto h = header(static_cast<std::uint32_t>(body.size()));
  d.feed(h.data(), h.size());
  std::optional<Frame> frame;
  {
    const AllocProbe probe(std::size_t{64} << 10);
    for (std::size_t at = 0; at < body.size(); at += 16 << 10) {
      d.feed(body.data() + at, 16 << 10);
    }
    frame = d.next();
    EXPECT_LE(probe.count(), 3u) << "the body grew in too many steps";
    EXPECT_LE(probe.largest(), body.size());
  }
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->body, body);
  EXPECT_FALSE(d.mid_frame());
}

// The scatter-gather outbox over a socketpair whose send buffer is tiny and
// whose reader drains a few bytes at a time: writes stop short inside heads,
// at head/payload seams and inside payloads, and the stream must still be
// exactly the contiguous encodes — whose CRCs Frame.WireBytesArePinned pins.
// Frames share payloads, and one payload is re-pointed to a copy (the
// server's straggler hand-off) before its original is overwritten.
TEST(Outbox, ScatterGatherFramesReassembleIntoThePinnedBytes) {
  auto [writer, reader] = tight_socketpair();

  fl::GlobalModelMessage pinned_model;
  pinned_model.round = 5;
  pinned_model.model_state =
      tensor::serialize_tensors({tensor::Tensor({2}, {1.0, 2.0})});
  common::Rng rng(0x0B0C5);
  fl::GlobalModelMessage big_model;
  big_model.round = 6;
  big_model.model_state =
      tensor::serialize_tensors({tensor::Tensor::randn({3000}, rng)});
  const auto borrowed = std::make_shared<tensor::ByteBuffer>(
      big_model.model_state);
  const tensor::ByteBuffer update_bytes = valid_update_frame();
  const fl::ClientUpdateMessage update =
      decode_update(tensor::ByteBuffer(
          update_bytes.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
          update_bytes.end()));
  const auto pinned_state =
      std::make_shared<const tensor::ByteBuffer>(pinned_model.model_state);
  const OutFrame cached_update = update_frame(update);

  Outbox box;
  tensor::ByteBuffer expected;
  const auto queue = [&](OutFrame frame, const tensor::ByteBuffer& bytes) {
    box.push(std::move(frame));
    expected.insert(expected.end(), bytes.begin(), bytes.end());
  };
  for (int rep = 0; rep < 12; ++rep) {
    queue(encode_hello(Hello{42}), encode_hello(Hello{42}));
    queue(model_frame(5, pinned_state), encode_model(pinned_model));
    queue(cached_update, update_bytes);
    queue(model_frame(6, borrowed), encode_model(big_model));
    queue(encode_heartbeat(), encode_heartbeat());
    queue(cached_update, update_bytes);
  }
  EXPECT_EQ(common::crc32c(encode_model(pinned_model).data(),
                           encode_model(pinned_model).size()),
            0x5591C7EAU);
  EXPECT_EQ(common::crc32c(update_bytes.data(), update_bytes.size()),
            0x585A9A49U);

  // The hand-off: queued frames move to a copy, then the original changes.
  const auto owned = std::make_shared<const tensor::ByteBuffer>(*borrowed);
  box.repoint(borrowed, owned);
  std::fill(borrowed->begin(), borrowed->end(), 0xEE);

  tensor::ByteBuffer got;
  std::size_t short_writes = 0;
  for (std::size_t step = 0; !box.flush(writer); ++step) {
    ++short_writes;
    drain(reader, got, 1 + (step * 37) % 200);
  }
  EXPECT_TRUE(box.empty());
  drain(reader, got, expected.size() - got.size());
  EXPECT_GT(short_writes, 20u) << "the send buffer never filled";
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected) << "the gathered stream differs";

  FrameDecoder d;
  d.feed(got.data(), got.size());
  std::size_t frames = 0;
  while (d.next()) ++frames;
  EXPECT_EQ(frames, 12u * 6u);
}

// Every seam on purpose: a contiguous lead of L bytes, L over one period of
// the (head, payload) frames queued behind it, slides the point where the
// first write stops short across each head/payload seam and each frame end
// of the period. The first gathered write is several times the send
// buffer, so where it stops is the buffer's capacity, counted from the
// lead's first byte.
TEST(Outbox, ShortWritesStopOnEverySeam) {
  common::Rng rng(0x5EA5);
  fl::GlobalModelMessage msg;
  msg.round = 7;
  msg.model_state =
      tensor::serialize_tensors({tensor::Tensor::randn({70}, rng)});
  const OutFrame frame = model_frame(
      msg.round, std::make_shared<const tensor::ByteBuffer>(msg.model_state));
  const tensor::ByteBuffer frame_bytes = encode_model(msg);
  const std::size_t period = frame.size();
  ASSERT_EQ(frame_bytes.size(), period);
  std::set<std::size_t> stops;  // first stop, as an offset into a period
  for (std::size_t lead = 1; lead <= period; ++lead) {
    auto [writer, reader] = tight_socketpair();
    Outbox box;
    tensor::ByteBuffer expected(lead, 0xA5);
    box.push(OutFrame(expected));
    for (int i = 0; i < 20; ++i) {
      box.push(frame);
      expected.insert(expected.end(), frame_bytes.begin(), frame_bytes.end());
    }
    ASSERT_FALSE(box.flush(writer)) << "the send buffer never filled";
    tensor::ByteBuffer got;
    drain(reader, got, expected.size());
    ASSERT_GT(got.size(), lead);
    stops.insert((got.size() - lead) % period);
    while (!box.flush(writer)) drain(reader, got, expected.size());
    drain(reader, got, expected.size() - got.size());
    EXPECT_TRUE(got == expected) << "lead " << lead;
  }
  EXPECT_EQ(stops.count(0), 1u) << "no write stopped at a frame end";
  EXPECT_EQ(stops.count(frame.head.size()), 1u)
      << "no write stopped at a head/payload seam";
}

// --- Satellite: decoder fuzz sweep ------------------------------------------

TEST(FrameFuzz, EveryTruncationOfAValidFrameWaitsCleanly) {
  // A prefix of a valid frame is always just an incomplete stream: the
  // decoder reports "need more bytes" (and mid_frame() for the close-time
  // truncation check) — never a crash, never a bogus frame.
  const auto frame = valid_update_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    FrameDecoder d;
    d.feed(frame.data(), len);
    EXPECT_FALSE(d.next().has_value()) << "prefix length " << len;
    EXPECT_EQ(d.mid_frame(), len > 0) << "prefix length " << len;
  }
  // The full frame still decodes.
  FrameDecoder d;
  d.feed(frame.data(), frame.size());
  EXPECT_TRUE(d.next().has_value());
}

TEST(FrameFuzz, SeededBitFlipsNeverCrashTheDecodePath) {
  // 200 seeded single-bit flips anywhere in a valid frame. Every outcome
  // must be a typed error (NetError from the frame layer, Serialization/
  // ChecksumError from the tensor payload) or a clean decode — the sweep's
  // real assertion is "no crash / no UB", which the ASan stage enforces.
  const auto frame = valid_update_frame();
  common::Rng rng(0x0A5150F1);
  for (int trial = 0; trial < 200; ++trial) {
    auto damaged = frame;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(damaged.size()) - 1));
    const auto bit = static_cast<int>(rng.uniform_int(0, 7));
    damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
    try {
      FrameDecoder d;
      d.feed(damaged.data(), damaged.size());
      while (auto f = d.next()) {
        if (f->type == FrameType::kUpdate) {
          const auto msg = decode_update(f->body);
          // The CRC32C trailer inside the tensor payload is what the
          // server-side validation pipeline checks; damaged bytes must be
          // caught here, not crash the scan.
          (void)tensor::scan_tensors(msg.gradients);
        }
      }
    } catch (const Error&) {
      // Typed rejection is a pass.
    }
  }
}

// --- Loopback rounds on a virtual clock -------------------------------------

/// Steps server + clients on a shared virtual millisecond clock until the
/// serving schedule completes. Returns false on iteration blow-up (a hang).
bool drive_loopback(FlServer& server, std::vector<FlClient*> clients,
                    std::uint64_t& t, int max_iters = 200000) {
  for (int i = 0; i < max_iters; ++i) {
    server.step(0);
    for (auto* c : clients) {
      if (!c->finished()) c->step(0);
    }
    ++t;
    if (server.finished()) {
      // Let clients consume their goodbyes.
      for (auto* c : clients) {
        for (int k = 0; k < 64 && !c->finished(); ++k) c->step(0);
      }
      return true;
    }
  }
  // Stuck: dump the counter fingerprint so the failure is diagnosable.
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    if (value != 0 && name.rfind("net.", 0) == 0) {
      std::cerr << "  " << name << " = " << value << "\n";
    }
  }
  return false;
}

TEST(NetRound, LoopbackFederationMatchesInProcessServerBitExactly) {
  constexpr index_t kClients = 3;
  constexpr std::uint64_t kRounds = 2;

  // Reference: the same rounds driven entirely in process, collecting
  // updates in ascending id order (the unseeded server's round order).
  fl::Server ref(tiny_factory(21)(), /*learning_rate=*/0.1);
  std::vector<std::unique_ptr<fl::Client>> ref_clients;
  for (index_t i = 0; i < kClients; ++i) ref_clients.push_back(make_client(i));
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    for (auto& c : ref_clients) updates.push_back(c->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  const auto want = nn::serialize_state(ref.global_model());

  // Served: same construction, every update crossing a real TCP socket.
  fl::Server core(tiny_factory(21)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kRounds;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    cores.push_back(make_client(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", server.port());
  }
  ASSERT_TRUE(drive_loopback(
      server, {clients[0].get(), clients[1].get(), clients[2].get()}, t));

  EXPECT_EQ(server.rounds_served(), kRounds);
  EXPECT_EQ(core.round(), kRounds);
  const auto got = nn::serialize_state(core.global_model());
  EXPECT_EQ(got, want) << "socket serving must preserve bit-identity";
  for (const auto& c : clients) {
    EXPECT_EQ(c->rounds_completed(), kRounds);
    EXPECT_EQ(c->rounds_committed(), kRounds);
  }
  EXPECT_EQ(server.round_latencies_ms().size(), kRounds);
}

// The server thread's payload-sized allocations over steady-state rounds,
// clients on threads of their own (DESIGN.md §5p). Each round the server
// serializes the model once, receives each of the three update bodies into
// one allocation, folds them into the storage the last round left, and
// commits the average divided in place: 4. The model frames borrow the
// core's bytes, and no decode, fold or commit copies a payload.
TEST(NetAlloc, ServerThreadMakesFourPayloadSizedAllocationsPerRound) {
  constexpr index_t kClients = 3;
  constexpr std::uint64_t kRounds = 6;
  constexpr std::uint64_t kWarm = 2;  // probe from this commit ...
  constexpr std::uint64_t kEnd = 5;   // ... to this one
  fl::Server core(tiny_factory(21)(), /*learning_rate=*/0.1);
  const std::size_t payload =
      nn::serialize_state(core.global_model()).size();
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kRounds;
  FlServer server(core, cfg);
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::vector<std::unique_ptr<fl::Client>> cores;
  for (index_t i = 0; i < kClients; ++i) cores.push_back(make_client(i));
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> completed(kClients, 0);
  for (index_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      FlClientConfig ccfg;
      ccfg.client_id = i;
      FlClient client(*cores[i], ccfg);
      completed[i] = client.run("127.0.0.1", port);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto serve_until = [&](std::uint64_t served) {
    while (server.rounds_served() < served && server.step(5) &&
           std::chrono::steady_clock::now() < deadline) {
    }
  };
  serve_until(kWarm);
  std::size_t allocations = 0;
  {
    // The cutover that ends round kWarm also dispatched round kWarm + 1,
    // and the one ending round kEnd dispatches kEnd + 1: the window holds
    // kEnd - kWarm whole rounds.
    const AllocProbe probe(payload / 2);
    serve_until(kEnd);
    allocations = probe.count();
  }
  while (server.step(5) && std::chrono::steady_clock::now() < deadline) {
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(server.rounds_served(), kRounds);
  for (const auto c : completed) EXPECT_EQ(c, kRounds);
  EXPECT_LE(allocations, 4 * (kEnd - kWarm))
      << allocations << " payload-sized allocations over " << kEnd - kWarm
      << " rounds";
}

// The socket engine under the round loop's fault plan commits the bytes the
// in-process loop commits with one collection attempt: each client decides
// its fault before training, as the loop does. Model bytes are compared,
// not counters: a truncated update is rejected in process but never
// received by the socket server.
TEST(NetRound, FaultPlanLoopbackMatchesSingleAttemptSimulation) {
  constexpr index_t kClients = 3;
  constexpr std::uint64_t kRounds = 4;
  constexpr std::uint64_t kSelectionSeed = 3;
  fl::FaultConfig faults;
  faults.dropout_prob = 0.15;
  faults.straggler_prob = 0.15;
  faults.corrupt_prob = 0.4;
  faults.poison_prob = 0.15;
  faults.byzantine_fraction = 0.3;
  faults.seed = 295;
  const fl::FaultPlan plan(faults);

  // The plan is a pure function, so its coverage is known up front: every
  // fault kind and corruption kind is drawn at least once.
  std::set<std::pair<fl::FaultKind, fl::CorruptionKind>> drawn;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (index_t c = 0; c < kClients; ++c) {
      const fl::ClientFault f = plan.decide(r, 0, c);
      drawn.emplace(f.kind, f.kind == fl::FaultKind::kCorrupt
                                ? f.corruption
                                : fl::CorruptionKind::kTruncate);
    }
  }
  for (const auto kind :
       {fl::FaultKind::kDropout, fl::FaultKind::kStraggler,
        fl::FaultKind::kPoison, fl::FaultKind::kByzantine}) {
    EXPECT_TRUE(drawn.count({kind, fl::CorruptionKind::kTruncate}))
        << "fault kind " << static_cast<int>(kind) << " never drawn";
  }
  for (const auto corruption :
       {fl::CorruptionKind::kTruncate, fl::CorruptionKind::kBitFlip,
        fl::CorruptionKind::kWrongRound, fl::CorruptionKind::kDuplicate}) {
    EXPECT_TRUE(drawn.count({fl::FaultKind::kCorrupt, corruption}))
        << "corruption kind " << static_cast<int>(corruption)
        << " never drawn";
  }

  // The norm screen rejects the norm-scaled poison on both servers.
  fl::ValidationConfig validation;
  validation.max_grad_norm = 1e4;

  auto ref_server =
      std::make_unique<fl::Server>(tiny_factory(88)(), /*learning_rate=*/0.1);
  ref_server->set_validation(validation);
  std::vector<std::unique_ptr<fl::Client>> ref_clients;
  for (index_t i = 0; i < kClients; ++i) ref_clients.push_back(make_client(i));
  fl::SimulationConfig sim_cfg;
  sim_cfg.seed = kSelectionSeed;
  sim_cfg.max_attempts = 1;
  fl::Simulation sim(std::move(ref_server), std::move(ref_clients), sim_cfg);
  sim.set_fault_plan(plan);
  sim.run(kRounds);
  const auto want = nn::serialize_state(sim.server().global_model());

  fl::Server core(tiny_factory(88)(), /*learning_rate=*/0.1);
  core.set_validation(validation);
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kRounds;
  cfg.selection_seed = kSelectionSeed;
  // Above the plan's 400-tick straggler bound, so every held update lands.
  cfg.round_timeout_ms = 1000;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    cores.push_back(make_client(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
    clients[i]->set_fault_plan(plan);
    clients[i]->connect("127.0.0.1", server.port());
  }
  ASSERT_TRUE(drive_loopback(
      server, {clients[0].get(), clients[1].get(), clients[2].get()}, t));

  EXPECT_EQ(server.rounds_served(), kRounds);
  EXPECT_EQ(nn::serialize_state(core.global_model()), want)
      << "the socket engine must commit the in-process bytes under faults";
}

// --- Satellite: graceful cutover + backpressure -----------------------------

TEST(NetRound, MidRoundArrivalBouncesThenJoinsNextRoundBitExactly) {
  // Reference: round 1 aggregates clients {0, 1}; round 2 aggregates {0, 2}
  // (ascending id order both times — the fairness rule seats the bounced
  // newcomer 2 and the id-tiebreak picks 0 over 1).
  fl::Server ref(tiny_factory(33)(), /*learning_rate=*/0.1);
  std::vector<std::unique_ptr<fl::Client>> ref_clients;
  for (index_t i = 0; i < 3; ++i) ref_clients.push_back(make_client(i));
  {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    updates.push_back(ref_clients[0]->handle_round(msg));
    updates.push_back(ref_clients[1]->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    updates.push_back(ref_clients[0]->handle_round(msg));
    updates.push_back(ref_clients[2]->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  const auto want = nn::serialize_state(ref.global_model());

  fl::Server core(tiny_factory(33)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 2;
  cfg.rounds = 2;
  cfg.retry_after_ms = 2;
  cfg.admission_window_ms = 20;  // cutover → reconnect gap for the newcomer
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  for (index_t i = 0; i < 3; ++i) {
    cores.push_back(make_client(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
  }
  clients[0]->connect("127.0.0.1", server.port());
  clients[1]->connect("127.0.0.1", server.port());

  // Step until round 1 is dispatched to {0, 1} — breaking BEFORE the cohort
  // clients get to read the model, so the round is still open (collecting)
  // when the newcomer's hello reaches the server.
  const std::uint64_t started_before = counter_value("net.round.started");
  for (int i = 0; i < 10000; ++i) {
    server.step(0);
    if (counter_value("net.round.started") > started_before) break;
    clients[0]->step(0);
    clients[1]->step(0);
    ++t;
  }
  ASSERT_GT(counter_value("net.round.started"), started_before);

  // ...then client 2 arrives mid-round: it must be turned away with a
  // retry-after frame, reconnect, and participate in round 2.
  clients[2]->connect("127.0.0.1", server.port());
  ASSERT_TRUE(drive_loopback(
      server, {clients[0].get(), clients[1].get(), clients[2].get()}, t));

  EXPECT_GE(clients[2]->retry_after_bounces(), 1u);
  EXPECT_EQ(clients[2]->rounds_completed(), 1u);
  EXPECT_EQ(clients[0]->rounds_completed(), 2u);
  EXPECT_EQ(clients[1]->rounds_completed(), 1u);
  const auto got = nn::serialize_state(core.global_model());
  EXPECT_EQ(got, want)
      << "backpressure + cutover must not perturb the aggregation";
}

// --- Round order, not arrival order -----------------------------------------

/// Steps the server and `clients` until the round opens. The loop breaks
/// right after the server step that dispatches, so no client has trained.
void seat_cohort(FlServer& server, const std::vector<FlClient*>& clients,
                 std::uint64_t& t) {
  const std::uint64_t started_before = counter_value("net.round.started");
  for (int i = 0; i < 10000; ++i) {
    server.step(0);
    if (counter_value("net.round.started") > started_before) break;
    for (auto* c : clients) c->step(0);
    ++t;
  }
  ASSERT_GT(counter_value("net.round.started"), started_before);
}

/// Steps `client` and the server until the server has received one more
/// update.
void deliver(FlServer& server, FlClient& client, std::uint64_t& t) {
  const std::uint64_t before = counter_value("net.update.received");
  for (int i = 0; i < 10000; ++i) {
    client.step(0);
    server.step(0);
    ++t;
    if (counter_value("net.update.received") > before) break;
  }
  ASSERT_EQ(counter_value("net.update.received"), before + 1);
}

// Two cohort members share inner id 7. The duplicate screen keeps the first
// update in round order, as the in-process fold does, whichever member's
// bytes reach the socket first.
TEST(NetRound, SpoofedInnerIdFoldsInRoundOrder) {
  const auto spoofer = [](std::uint64_t wire_id) {
    return std::make_unique<fl::Client>(
        7, tiny_dataset(6, 4, 11 + wire_id), tiny_factory(5),
        /*batch_size=*/4, std::make_shared<fl::IdentityPreprocessor>(),
        common::Rng(1000 + wire_id));
  };

  fl::Server ref(tiny_factory(61)(), /*learning_rate=*/0.1);
  {
    const fl::GlobalModelMessage msg = ref.begin_round();
    const std::vector<fl::ClientUpdateMessage> updates{
        spoofer(0)->handle_round(msg), spoofer(1)->handle_round(msg)};
    ASSERT_FALSE(updates[0].gradients == updates[1].gradients);
    const fl::RoundOutcome outcome = ref.finish_round(updates, 0);
    ASSERT_EQ(outcome.reasons[0], fl::RejectReason::kAccepted);
    ASSERT_EQ(outcome.reasons[1], fl::RejectReason::kDuplicate);
  }
  const auto want = nn::serialize_state(ref.global_model());

  fl::Server core(tiny_factory(61)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 2;
  cfg.rounds = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  for (std::uint64_t i = 0; i < 2; ++i) {
    cores.push_back(spoofer(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", server.port());
  }
  ASSERT_NO_FATAL_FAILURE(
      seat_cohort(server, {clients[0].get(), clients[1].get()}, t));
  // Member 1's bytes arrive first.
  ASSERT_NO_FATAL_FAILURE(deliver(server, *clients[1], t));
  ASSERT_TRUE(
      drive_loopback(server, {clients[0].get(), clients[1].get()}, t));

  EXPECT_EQ(server.rounds_served(), 1u);
  EXPECT_EQ(nn::serialize_state(core.global_model()), want)
      << "the duplicate screen must keep member 0's update, as in process";
}

// A dishonest server sees the updates in fold order, not arrival order:
// the capture is the same under every engine.
TEST(NetRound, MaliciousServerCapturesInFoldOrder) {
  constexpr index_t kClients = 3;
  fl::MaliciousServer core(tiny_factory(62)(), /*learning_rate=*/0.1,
                           [](nn::Sequential&) {});
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  std::vector<FlClient*> all;
  for (index_t i = 0; i < kClients; ++i) {
    cores.push_back(make_client(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", server.port());
    all.push_back(clients[i].get());
  }
  ASSERT_NO_FATAL_FAILURE(seat_cohort(server, all, t));
  for (index_t i = kClients; i-- > 0;) {
    ASSERT_NO_FATAL_FAILURE(deliver(server, *clients[i], t));
  }
  ASSERT_TRUE(drive_loopback(server, all, t));

  ASSERT_EQ(server.rounds_served(), 1u);
  std::vector<std::uint64_t> ids;
  for (const auto& u : core.captured()) ids.push_back(u.client_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2}));
}

// --- Abuse bounds -----------------------------------------------------------

TEST(NetServer, SlowlorisPartialHelloIsReapedByIdleDeadline) {
  fl::Server core(tiny_factory(44)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 1;
  cfg.rounds = 1;
  cfg.idle_timeout_ms = 50;
  std::uint64_t t = 0;
  FlServer server(core, cfg, [&t] { return t; });
  server.listen("127.0.0.1", 0);

  const std::uint64_t reaped_before = counter_value("net.conn.idle_timeout");
  {
    // A peer that sends 3 bytes of hello and then stalls forever.
    Socket slow = tcp_connect("127.0.0.1", server.port());
    const auto hello = encode_hello(Hello{9});
    ASSERT_EQ(write_some(slow, hello.data(), 3), 3);
    for (int i = 0; i < 200 && server.connection_count() == 0; ++i) {
      server.step(0);
      ++t;
    }
    ASSERT_EQ(server.connection_count(), 1u);
    t += cfg.idle_timeout_ms + 1;
    server.step(0);
    EXPECT_EQ(server.connection_count(), 0u);
    EXPECT_EQ(counter_value("net.conn.idle_timeout"), reaped_before + 1);
  }

  // The server survives the abuse: an honest client still completes a round.
  auto honest_core = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  FlClient honest(*honest_core, ccfg, [&t] { return t; });
  honest.connect("127.0.0.1", server.port());
  ASSERT_TRUE(drive_loopback(server, {&honest}, t));
  EXPECT_EQ(honest.rounds_completed(), 1u);
}

// A straggler still draining its model frame when the round closes gets
// the bytes it was sent. The frame borrows the core's dispatch buffer,
// which the next begin_round replaces, so the server hands the queued
// frame a copy first (DESIGN.md §5p). The model is larger than the loopback
// buffers hold, and the straggler reads nothing until the next round's
// model is queued behind the first.
TEST(NetServer, StragglerDrainingItsModelGetsTheBytesItWasSent) {
  const fl::ModelFactory factory = [] {
    common::Rng rng(77);
    return nn::make_mlp({3, 32, 32}, {256}, 4, rng);
  };
  fl::Server core(factory(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 2;
  cfg.rounds = 2;
  cfg.round_timeout_ms = 10;
  cfg.idle_timeout_ms = 1'000'000;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  data::SynthConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.height = data_cfg.width = 32;
  data_cfg.train_per_class = 2;
  data_cfg.test_per_class = 0;
  data_cfg.seed = 3;
  fl::Client trainer(0, data::generate(data_cfg).train, factory,
                     /*batch_size=*/4,
                     std::make_shared<fl::IdentityPreprocessor>(),
                     common::Rng(1));
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  FlClient honest(trainer, ccfg, clock);
  honest.connect("127.0.0.1", server.port());
  Socket straggler = tcp_connect("127.0.0.1", server.port());
  const auto hello = encode_hello(Hello{1});
  ASSERT_EQ(write_some(straggler, hello.data(), hello.size()),
            static_cast<long>(hello.size()));
  const auto step_both = [&] {
    server.step(0);
    honest.step(0);
  };

  // Round 0: the honest update is folded, then the deadline seals the
  // straggler out and round 1 opens with round 0's frame still queued.
  const fl::GlobalModelMessage round0{
      0, nn::serialize_state(core.global_model())};
  const std::uint64_t accepted = counter_value("fl.validate.accepted");
  for (int i = 0;
       i < 100000 && counter_value("fl.validate.accepted") == accepted; ++i) {
    step_both();
  }
  for (int i = 0; i < 100 && server.rounds_served() == 0; ++i) {
    step_both();
    t += 5;
  }
  ASSERT_EQ(server.rounds_served(), 1u);
  const fl::GlobalModelMessage round1 = core.dispatch_to(1);
  ASSERT_FALSE(round0.model_state == round1.model_state);

  // The clock stands still while the straggler reads what it was sent.
  FrameDecoder decoder;
  std::vector<Frame> got;
  std::uint8_t buf[16 * 1024];
  for (int i = 0; i < 100000 && got.size() < 4; ++i) {
    step_both();
    const long n = read_some(straggler, buf, sizeof(buf));
    if (n > 0) decoder.feed(buf, static_cast<std::size_t>(n));
    while (auto frame = decoder.next()) got.push_back(std::move(*frame));
  }
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].type, FrameType::kWelcome);
  EXPECT_EQ(got[2].type, FrameType::kRoundResult);
  EXPECT_TRUE(decode_model(got[1].body).model_state == round0.model_state)
      << "round 0's model changed under the straggler";
  EXPECT_TRUE(decode_model(got[3].body).model_state == round1.model_state);

  straggler.close();
  for (int i = 0; i < 100000 && !server.finished(); ++i) {
    step_both();
    t += 5;
  }
  EXPECT_TRUE(server.finished());
  EXPECT_EQ(server.rounds_served(), 2u);
}

TEST(NetServer, OversizedFramePrefixSeversOnlyThatConnection) {
  fl::Server core(tiny_factory(55)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 1;
  cfg.rounds = 1;
  cfg.max_frame_bytes = 1 << 20;  // fits real updates; rejects the 16 MiB lie
  std::uint64_t t = 0;
  FlServer server(core, cfg, [&t] { return t; });
  server.listen("127.0.0.1", 0);

  const std::uint64_t errs_before =
      counter_value("net.frame.error.oversized_frame");
  {
    Socket hostile = tcp_connect("127.0.0.1", server.port());
    // 16 MiB length prefix against a 4 KiB budget.
    const std::uint32_t len = 16u << 20;
    std::uint8_t header[kFrameHeaderBytes];
    header[0] = static_cast<std::uint8_t>(len & 0xFF);
    header[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
    header[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
    header[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
    header[4] = static_cast<std::uint8_t>(FrameType::kHello);
    ASSERT_EQ(write_some(hostile, header, sizeof(header)),
              static_cast<long>(sizeof(header)));
    for (int i = 0; i < 200 && counter_value("net.frame.error.oversized_frame")
                                   == errs_before; ++i) {
      server.step(0);
      ++t;
    }
    EXPECT_EQ(counter_value("net.frame.error.oversized_frame"),
              errs_before + 1);
    EXPECT_EQ(server.connection_count(), 0u);
  }

  auto honest_core = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  FlClient honest(*honest_core, ccfg, [&t] { return t; });
  honest.connect("127.0.0.1", server.port());
  ASSERT_TRUE(drive_loopback(server, {&honest}, t));
  EXPECT_EQ(honest.rounds_completed(), 1u);
}

// --- Multi-process equivalence ----------------------------------------------

TEST(NetMultiProcess, ForkedFederationMatchesSimulationBitExactly) {
  constexpr index_t kClients = 3;
  constexpr index_t kRounds = 2;
  constexpr std::uint64_t kSelectionSeed = 3;

  // Fork discipline (tests/crash_test.cpp): no worker threads across fork.
  runtime::set_num_threads(1);

  // Reference: the in-process round engine with its seeded M-of-N selection
  // (full population → per-round permutation of {0, 1, 2}).
  auto ref_server =
      std::make_unique<fl::Server>(tiny_factory(66)(), /*learning_rate=*/0.1);
  std::vector<std::unique_ptr<fl::Client>> ref_clients;
  for (index_t i = 0; i < kClients; ++i) ref_clients.push_back(make_client(i));
  fl::SimulationConfig sim_cfg{/*clients_per_round=*/0, kSelectionSeed};
  fl::Simulation sim(std::move(ref_server), std::move(ref_clients), sim_cfg);
  sim.run(kRounds);
  const auto want = nn::serialize_state(sim.server().global_model());

  // Served: identical federation, every client a forked process.
  fl::Server core(tiny_factory(66)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kRounds;
  cfg.selection_seed = kSelectionSeed;
  FlServer server(core, cfg);
  server.listen("127.0.0.1", 0);
  const std::uint16_t port = server.port();

  std::vector<pid_t> children;
  for (index_t i = 0; i < kClients; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: no gtest machinery, exit code is the only report channel.
      // Close inherited fds (notably the parent's listener — keeping it
      // would hold the port open past the parent's shutdown).
      for (int fd = 3; fd < 256; ++fd) ::close(fd);
      int code = 1;
      try {
        auto child_core = make_client(i);
        FlClientConfig ccfg;
        ccfg.client_id = i;
        FlClient client(*child_core, ccfg);
        client.run("127.0.0.1", port);
        code = client.rounds_completed() == kRounds ? 0 : 3;
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (server.step(20)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "forked federation did not finish";
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  EXPECT_EQ(server.rounds_served(), static_cast<std::uint64_t>(kRounds));
  const auto got = nn::serialize_state(core.global_model());
  EXPECT_EQ(got, want)
      << "multi-process serving must replay the simulation bit-exactly";
}

// --- Survivable serving (DESIGN.md §5j) -------------------------------------

TEST(Frame, ResumeVocabularyRoundTrips) {
  {
    const auto bytes =
        encode_resume(Resume{/*client_id=*/17, /*last_round=*/4,
                             /*has_update=*/true, /*update_round=*/3});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, FrameType::kResume);
    const Resume back = decode_resume(f->body);
    EXPECT_EQ(back.client_id, 17u);
    EXPECT_EQ(back.last_round, 4u);
    EXPECT_TRUE(back.has_update);
    EXPECT_EQ(back.update_round, 3u);
  }
  for (const auto status :
       {ResumeStatus::kNone, ResumeStatus::kPending, ResumeStatus::kAccepted,
        ResumeStatus::kExpired}) {
    const auto bytes = encode_resume_ack(ResumeAck{8, status});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    const ResumeAck back = decode_resume_ack(d.next()->body);
    EXPECT_EQ(back.round, 8u);
    EXPECT_EQ(back.status, status);
  }
  {
    const auto bytes = encode_heartbeat();
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_EQ(d.next()->type, FrameType::kHeartbeat);
  }
  {
    const auto bytes = encode_version_reject(VersionReject{kProtocolVersion});
    FrameDecoder d;
    d.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decode_version_reject(d.next()->body).supported_version,
              kProtocolVersion);
  }
  {
    // A resume from a future protocol dialect is a typed version error.
    auto bad_version = encode_resume(Resume{1, 0, false, 0});
    bad_version[kFrameHeaderBytes + 4] ^= 0xFF;
    FrameDecoder d;
    d.feed(bad_version.data(), bad_version.size());
    try {
      (void)decode_resume(d.next()->body);
      FAIL() << "bad resume version must throw";
    } catch (const NetError& e) {
      EXPECT_EQ(e.reason(), NetError::Reason::kBadVersion);
    }
  }
}

TEST(FrameFuzz, ResumeVocabularySurvivesTruncationAndBitFlips) {
  // The §5j frames join the same decoder sweep contract as the original
  // vocabulary: every prefix waits cleanly, every seeded single-bit flip is
  // either a clean decode or a typed error — never a crash (ASan enforces).
  const std::vector<tensor::ByteBuffer> frames = {
      encode_resume(Resume{17, 4, true, 3}),
      encode_resume_ack(ResumeAck{8, ResumeStatus::kPending}),
      encode_heartbeat(),
      encode_version_reject(VersionReject{kProtocolVersion}),
  };
  for (const auto& frame : frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      FrameDecoder d;
      d.feed(frame.data(), len);
      EXPECT_FALSE(d.next().has_value()) << "prefix length " << len;
      EXPECT_EQ(d.mid_frame(), len > 0) << "prefix length " << len;
    }
  }
  common::Rng rng(0x5E55107);
  for (int trial = 0; trial < 200; ++trial) {
    auto damaged = frames[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frames.size()) - 1))];
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(damaged.size()) - 1));
    damaged[pos] ^= static_cast<std::uint8_t>(
        1u << static_cast<int>(rng.uniform_int(0, 7)));
    try {
      FrameDecoder d;
      d.feed(damaged.data(), damaged.size());
      while (auto f = d.next()) {
        switch (f->type) {
          case FrameType::kResume:
            (void)decode_resume(f->body);
            break;
          case FrameType::kResumeAck:
            // Also covers the out-of-range status byte rejection.
            (void)decode_resume_ack(f->body);
            break;
          case FrameType::kVersionReject:
            (void)decode_version_reject(f->body);
            break;
          default:
            break;
        }
      }
    } catch (const Error&) {
      // Typed rejection is a pass.
    }
  }
}

// Satellite: every send path must surface a peer-closed socket as a typed
// NetError{kIo}, never as SIGPIPE process death (MSG_NOSIGNAL/SO_NOSIGPIPE
// audit of src/net/socket.cpp). The test IS the act of surviving the write.
TEST(NetSocket, WriteIntoPeerClosedSocketIsTypedErrorNotSigpipe) {
  Socket listener = tcp_listen("127.0.0.1", 0);
  const std::uint16_t port = local_port(listener);
  Socket writer = tcp_connect("127.0.0.1", port);
  Socket reader;
  for (int i = 0; i < 1000 && !reader.valid(); ++i) {
    reader = tcp_accept(listener);
  }
  ASSERT_TRUE(reader.valid());
  reader.close();  // peer is gone; the writer does not know yet

  // First writes land in kernel buffers; keep pushing until the RST turns
  // into EPIPE/ECONNRESET. Unhandled SIGPIPE would kill the process here.
  std::vector<std::uint8_t> chunk(64 * 1024, 0xAB);
  bool threw = false;
  for (int i = 0; i < 10000 && !threw; ++i) {
    try {
      (void)write_some(writer, chunk.data(), chunk.size());
    } catch (const NetError& e) {
      EXPECT_EQ(e.reason(), NetError::Reason::kIo);
      threw = true;
    }
  }
  EXPECT_TRUE(threw) << "peer-closed write never surfaced an error";
}

// Satellite: version negotiation. An unknown protocol version in the opening
// handshake is answered with a typed kVersionReject frame carrying the
// server's supported version, then an orderly close — not a silent drop.
TEST(NetServer, UnknownHelloVersionGetsRejectFrameThenClose) {
  fl::Server core(tiny_factory(88)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 1;
  cfg.rounds = 1;
  std::uint64_t t = 0;
  FlServer server(core, cfg, [&t] { return t; });
  server.listen("127.0.0.1", 0);

  const std::uint64_t rejected_before = counter_value("net.version.rejected");
  Socket probe = tcp_connect("127.0.0.1", server.port());
  auto hello = encode_hello(Hello{3});
  hello[kFrameHeaderBytes + 4] ^= 0xFF;  // bump the version field
  ASSERT_EQ(write_some(probe, hello.data(), hello.size()),
            static_cast<long>(hello.size()));

  FrameDecoder d;
  std::uint8_t buf[4096];
  bool closed = false;
  std::vector<Frame> got;
  for (int i = 0; i < 2000 && !closed; ++i) {
    server.step(0);
    ++t;
    const long n = read_some(probe, buf, sizeof(buf));
    if (n < 0) {
      closed = true;
    } else if (n > 0) {
      d.feed(buf, static_cast<std::size_t>(n));
      while (auto f = d.next()) got.push_back(std::move(*f));
    }
  }
  ASSERT_TRUE(closed) << "server must close after the reject";
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].type, FrameType::kVersionReject);
  EXPECT_EQ(decode_version_reject(got[0].body).supported_version,
            kProtocolVersion);
  EXPECT_EQ(counter_value("net.version.rejected"), rejected_before + 1);
}

TEST(NetClient, VersionRejectFromServerIsFatalNotRetried) {
  Socket listener = tcp_listen("127.0.0.1", 0);
  const std::uint16_t port = local_port(listener);

  auto core = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  std::uint64_t t = 0;
  FlClient client(*core, ccfg, [&t] { return t; });
  client.connect("127.0.0.1", port);

  Socket conn;
  bool threw = false;
  for (int i = 0; i < 5000 && !threw; ++i) {
    if (!conn.valid()) {
      conn = tcp_accept(listener);
      if (conn.valid()) {
        const auto reject =
            encode_version_reject(VersionReject{kProtocolVersion});
        ASSERT_EQ(write_some(conn, reject.data(), reject.size()),
                  static_cast<long>(reject.size()));
      }
    }
    try {
      client.step(0);
    } catch (const NetError& e) {
      EXPECT_EQ(e.reason(), NetError::Reason::kBadVersion);
      threw = true;
    }
    ++t;
  }
  EXPECT_TRUE(threw) << "client must treat kVersionReject as fatal";
}

// Satellite: liveness. A dead-but-open socket (connected, never a byte) must
// trip the client's no-progress deadline into a reconnect, not a hang.
TEST(NetClient, StalledServerTripsIdleDeadlineIntoReconnect) {
  Socket listener = tcp_listen("127.0.0.1", 0);  // accepts; never speaks
  const std::uint16_t port = local_port(listener);

  auto core = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  ccfg.io_timeout_ms = 40;
  ccfg.backoff_ms = 5;
  std::uint64_t t = 0;
  FlClient client(*core, ccfg, [&t] { return t; });
  client.connect("127.0.0.1", port);
  for (int i = 0; i < 600; ++i) {
    (void)tcp_accept(listener);  // drain the backlog, say nothing
    client.step(0);
    t += 10;
    if (client.retries() >= 2) break;
  }
  EXPECT_GE(client.retries(), 2u)
      << "a silent endpoint must be abandoned and redialed";
}

// Satellite: the inverse — a slow but ALIVE server heartbeats, so the same
// idle deadline never fires and the session stays up with zero reconnects.
TEST(NetClient, HeartbeatingServerHoldsSessionWithoutReconnect) {
  fl::Server core(tiny_factory(99)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 2;  // one parked client cannot start a round: a stall
  cfg.rounds = 1;
  cfg.heartbeat_ms = 10;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  auto core0 = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  ccfg.io_timeout_ms = 40;   // << the 1000 ms stall below
  ccfg.heartbeat_ms = 10;    // and the client heartbeats back
  FlClient parked(*core0, ccfg, clock);
  parked.connect("127.0.0.1", server.port());

  const std::uint64_t hb_in_before = counter_value("net.heartbeat.received");
  for (int i = 0; i < 1000; ++i) {  // a 1000 ms round-less stall
    server.step(0);
    parked.step(0);
    ++t;
  }
  EXPECT_EQ(parked.retries(), 0u)
      << "heartbeats must keep the idle deadline from tripping";
  // ...and the client's own heartbeats reached the server (liveness is
  // symmetric: the server's idle deadline tolerates client stalls too).
  EXPECT_GT(counter_value("net.heartbeat.received"), hb_in_before);

  // The stalled federation is still fully operational: seat a second client
  // and the round completes.
  auto core1 = make_client(1);
  FlClientConfig ccfg1;
  ccfg1.client_id = 1;
  FlClient second(*core1, ccfg1, clock);
  second.connect("127.0.0.1", server.port());
  ASSERT_TRUE(drive_loopback(server, {&parked, &second}, t));
  EXPECT_EQ(parked.rounds_completed(), 1u);
  EXPECT_EQ(second.rounds_completed(), 1u);
}

// Satellite: the reconnect schedule is exponential, capped, and — jittered or
// not — a pure function of (config, client id, attempt): replayable.
TEST(NetClient, BackoffScheduleIsExponentialCappedAndReproducible) {
  // A port with nothing behind it: bind, read the number, release it.
  std::uint16_t dead_port = 0;
  {
    Socket probe = tcp_listen("127.0.0.1", 0);
    dead_port = local_port(probe);
  }

  const auto exhaust = [&](std::optional<std::uint64_t> jitter_seed,
                           std::uint64_t id) {
    auto core = make_client(id);
    FlClientConfig ccfg;
    ccfg.client_id = id;
    ccfg.max_attempts = 6;
    ccfg.backoff_ms = 4;
    ccfg.backoff_max_ms = 32;
    ccfg.jitter_seed = jitter_seed;
    std::uint64_t t = 0;
    FlClient client(*core, ccfg, [&t] { return t; });
    client.connect("127.0.0.1", dead_port);
    for (int i = 0; i < 1000; ++i) {
      try {
        client.step(0);
      } catch (const NetError& e) {
        EXPECT_EQ(e.reason(), NetError::Reason::kRetryExhausted);
        return client.backoff_ms_total();
      }
      t += 100;  // jump past any scheduled wait
    }
    ADD_FAILURE() << "retry budget never exhausted";
    return std::uint64_t{0};
  };

  // No jitter: waits are exactly 4, 8, 16, 32(cap), 32(cap) = 92 ms.
  EXPECT_EQ(exhaust(std::nullopt, 0), 92u);
  // Jitter adds at most wait/2 per attempt and is replayable per (seed, id).
  const std::uint64_t jittered = exhaust(0xD15C0, 0);
  EXPECT_GE(jittered, 92u);
  EXPECT_LE(jittered, 92u + 46u);
  EXPECT_EQ(exhaust(0xD15C0, 0), jittered);
}

// Satellite: checkpoint-write failure degrades to in-memory serving — the
// round completes bit-exactly, the loss of durability is observable, the
// process never aborts.
TEST(NetServer, CheckpointWriteFailureDegradesToInMemory) {
  const ScratchDir root("net_degraded");
  const std::string blocker = root.path("notadir");
  {
    std::ofstream out(blocker);  // a FILE where the manager wants a directory
    out << "x";
  }

  fl::Server ref(tiny_factory(111)(), /*learning_rate=*/0.1);
  auto ref_client = make_client(0);
  {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    updates.push_back(ref_client->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  const auto want = nn::serialize_state(ref.global_model());

  ckpt::CheckpointManager manager(blocker, /*keep=*/2);
  fl::Server core(tiny_factory(111)(), /*learning_rate=*/0.1);
  FlServerConfig cfg;
  cfg.cohort_size = 1;
  cfg.rounds = 1;
  cfg.checkpoint = &manager;
  cfg.checkpoint_every_accepts = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };
  FlServer server(core, cfg, clock);
  const std::uint64_t degraded_before = counter_value("net.ckpt.degraded");
  server.listen("127.0.0.1", 0);  // even the generation-0 save fails

  auto core0 = make_client(0);
  FlClientConfig ccfg;
  ccfg.client_id = 0;
  FlClient client(*core0, ccfg, clock);
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(drive_loopback(server, {&client}, t));

  EXPECT_TRUE(server.checkpoint_degraded());
  EXPECT_GT(counter_value("net.ckpt.degraded"), degraded_before);
  EXPECT_EQ(nn::serialize_state(core.global_model()), want)
      << "degraded mode must not perturb the aggregation";
}

// Tentpole, deterministically: destroy the server at the first mid-round
// fold checkpoint — with two further updates still held, unscreened, behind
// the fold frontier — rebuild from disk on the same port, and finish the
// schedule bit-exactly. This is the in-process, virtual-clock twin of the
// fork/SIGKILL chaos harness (tests/net_chaos_test.cpp), pinning the exact
// snapshot semantics: only screened updates claim ids, so
// the pending members' cached resends are re-accepted, never bounced.
TEST(NetRestart, MidRoundRestartWithPendingAcceptsIsBitExact) {
  constexpr index_t kClients = 3;
  constexpr std::uint64_t kRounds = 2;
  const ScratchDir root("net_restart");

  fl::Server ref(tiny_factory(77)(), /*learning_rate=*/0.1);
  std::vector<std::unique_ptr<fl::Client>> ref_clients;
  for (index_t i = 0; i < kClients; ++i) ref_clients.push_back(make_client(i));
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    for (auto& c : ref_clients) updates.push_back(c->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  const auto want = nn::serialize_state(ref.global_model());

  ckpt::CheckpointManager manager(root.path("ckpt"), /*keep=*/4);
  FlServerConfig cfg;
  cfg.cohort_size = kClients;
  cfg.rounds = kRounds;
  cfg.checkpoint = &manager;
  cfg.checkpoint_every_accepts = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };

  auto core = std::make_unique<fl::Server>(tiny_factory(77)(),
                                           /*learning_rate=*/0.1);
  auto server = std::make_unique<FlServer>(*core, cfg, clock);
  server->listen("127.0.0.1", 0);
  const std::uint16_t port = server->port();
  // Installed AFTER listen so the generation-0 snapshot does not trip it:
  // the next save is the first mid-round fold checkpoint.
  struct Kill {};
  server->set_event_hook([](FlServer::Event e) {
    if (e == FlServer::Event::kCheckpointSaved) throw Kill{};
  });

  std::vector<std::unique_ptr<fl::Client>> cores;
  std::vector<std::unique_ptr<FlClient>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    cores.push_back(make_client(i));
    FlClientConfig ccfg;
    ccfg.client_id = i;
    ccfg.backoff_ms = 5;
    clients.push_back(std::make_unique<FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", port);
  }

  // Seat the cohort and dispatch round 0, holding every client back from
  // reading the model (the MidRoundArrival choreography).
  const std::uint64_t started_before = counter_value("net.round.started");
  for (int i = 0; i < 10000; ++i) {
    server->step(0);
    if (counter_value("net.round.started") > started_before) break;
    for (auto& c : clients) c->step(0);
    ++t;
  }
  ASSERT_GT(counter_value("net.round.started"), started_before);

  // Clients 1 and 2 train and deliver FIRST: both are held, unscreened,
  // behind the fold frontier, which waits on client 0.
  const std::uint64_t updates_before = counter_value("net.update.received");
  for (int i = 0; i < 10000; ++i) {
    server->step(0);
    clients[1]->step(0);
    clients[2]->step(0);
    ++t;
    if (counter_value("net.update.received") >= updates_before + 2) break;
  }
  ASSERT_EQ(counter_value("net.update.received"), updates_before + 2);

  // Client 0 delivers; its fold triggers the first checkpoint — and the
  // "crash", with clients 1 and 2 held, unscreened.
  bool killed = false;
  for (int i = 0; i < 10000 && !killed; ++i) {
    clients[0]->step(0);
    try {
      server->step(0);
    } catch (const Kill&) {
      killed = true;
    }
    ++t;
  }
  ASSERT_TRUE(killed);
  server.reset();
  core.reset();

  // Restart: fresh core, state from disk, same port. The restored round is
  // still round 0, mid-flight.
  auto core2 = std::make_unique<fl::Server>(tiny_factory(77)(),
                                            /*learning_rate=*/0.1);
  FlServer server2(*core2, cfg, clock);
  EXPECT_EQ(server2.resume_from(), 0u);
  server2.listen("127.0.0.1", port);

  ASSERT_TRUE(drive_loopback(
      server2, {clients[0].get(), clients[1].get(), clients[2].get()}, t));
  EXPECT_EQ(server2.rounds_served(), kRounds);
  EXPECT_EQ(nn::serialize_state(core2->global_model()), want)
      << "mid-round restart must preserve bit-identity";
  // The recovery used the session machinery: everyone resumed, and the two
  // unfolded members answered from their caches instead of retraining.
  std::uint64_t resumed = 0;
  for (const auto& c : clients) resumed += c->sessions_resumed();
  EXPECT_GE(resumed, 3u);
  EXPECT_GE(clients[1]->cached_resends() + clients[2]->cached_resends(), 2u);
}

// An update rejected for its payload still claims its inner id (the
// screen claims before it checks the bytes), so a mid-round snapshot must
// restore every claimed id, not only the folded ones. Wire member 0 sends a
// CRC-damaged update spoofing inner id 1, then its valid update (id 0);
// member 1's update under id 1 is then a duplicate. Killed at the
// checkpoint after member 0's fold and resumed, the server must still
// reject member 1 and commit what an uninterrupted round commits.
TEST(NetRestart, MidRoundResumeKeepsPayloadRejectedClaims) {
  const ScratchDir root("net_rejected_claims");

  // Reference: the uninterrupted round, in round order, in process.
  fl::Server ref(tiny_factory(78)(), /*learning_rate=*/0.1);
  const fl::GlobalModelMessage msg = ref.begin_round();
  const fl::ClientUpdateMessage valid = make_client(0)->handle_round(msg);
  fl::ClientUpdateMessage damaged = valid;
  damaged.client_id = 1;
  damaged.gradients[damaged.gradients.size() / 2] ^= 0x01;
  {
    const std::vector<fl::ClientUpdateMessage> updates{
        damaged, valid, make_client(1)->handle_round(msg)};
    const fl::RoundOutcome outcome = ref.finish_round(updates, 0);
    ASSERT_EQ(outcome.reasons[0], fl::RejectReason::kChecksumMismatch);
    ASSERT_EQ(outcome.reasons[1], fl::RejectReason::kAccepted);
    ASSERT_EQ(outcome.reasons[2], fl::RejectReason::kDuplicate);
  }
  const auto want = nn::serialize_state(ref.global_model());

  ckpt::CheckpointManager manager(root.path("ckpt"), /*keep=*/4);
  FlServerConfig cfg;
  cfg.cohort_size = 2;
  cfg.rounds = 1;
  cfg.checkpoint = &manager;
  cfg.checkpoint_every_accepts = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };

  auto core = std::make_unique<fl::Server>(tiny_factory(78)(),
                                           /*learning_rate=*/0.1);
  auto server = std::make_unique<FlServer>(*core, cfg, clock);
  server->listen("127.0.0.1", 0);
  const std::uint16_t port = server->port();
  // After listen: the next save is the checkpoint after member 0's fold.
  struct Kill {};
  server->set_event_hook([](FlServer::Event e) {
    if (e == FlServer::Event::kCheckpointSaved) throw Kill{};
  });

  // Member 0 speaks the protocol by hand; member 1 is an honest client.
  Socket spoofer = tcp_connect("127.0.0.1", port);
  const auto hello = encode_hello(Hello{0});
  ASSERT_EQ(write_some(spoofer, hello.data(), hello.size()),
            static_cast<long>(hello.size()));
  const auto honest_core = make_client(1);
  FlClientConfig ccfg;
  ccfg.client_id = 1;
  ccfg.backoff_ms = 5;
  FlClient honest(*honest_core, ccfg, clock);
  honest.connect("127.0.0.1", port);
  ASSERT_NO_FATAL_FAILURE(seat_cohort(*server, {&honest}, t));

  const std::uint64_t checksum_before =
      counter_value("fl.validate.reject.checksum");
  for (const auto& frame : {encode_update(damaged), encode_update(valid)}) {
    ASSERT_EQ(write_some(spoofer, frame.data(), frame.size()),
              static_cast<long>(frame.size()));
  }
  bool killed = false;
  for (int i = 0; i < 10000 && !killed; ++i) {
    try {
      server->step(0);
    } catch (const Kill&) {
      killed = true;
    }
    ++t;
  }
  ASSERT_TRUE(killed);
  ASSERT_EQ(counter_value("fl.validate.reject.checksum"), checksum_before + 1);
  server.reset();
  core.reset();
  spoofer.close();

  fl::Server core2(tiny_factory(78)(), /*learning_rate=*/0.1);
  FlServer server2(core2, cfg, clock);
  EXPECT_EQ(server2.resume_from(), 0u);
  server2.listen("127.0.0.1", port);
  const std::uint64_t duplicates_before =
      counter_value("fl.validate.reject.duplicate");
  ASSERT_TRUE(drive_loopback(server2, {&honest}, t));
  EXPECT_EQ(server2.rounds_served(), 1u);
  EXPECT_EQ(counter_value("fl.validate.reject.duplicate"),
            duplicates_before + 1)
      << "member 1's update must meet the id member 0's damaged update "
         "claimed";
  EXPECT_EQ(nn::serialize_state(core2.global_model()), want)
      << "a resumed round must commit what an uninterrupted one commits";
}

// Finishing an in-flight round would re-run begin_round() on a model the
// snapshot already holds manipulated, so a MaliciousServer refuses a
// mid-round resume before any live state changes. A resting snapshot
// re-runs nothing and stays restorable.
TEST(NetRestart, MidRoundResumeRefusesMaliciousServer) {
  const ScratchDir root("net_malicious_resume");
  FlServerConfig cfg;
  cfg.cohort_size = 1;
  cfg.rounds = 1;
  cfg.checkpoint_every_accepts = 1;
  std::uint64_t t = 0;
  const TimeSource clock = [&t] { return t; };

  ckpt::CheckpointManager resting(root.path("resting"), /*keep=*/4);
  ckpt::CheckpointManager mid(root.path("mid"), /*keep=*/4);
  {
    fl::Server core(tiny_factory(63)(), /*learning_rate=*/0.1);
    cfg.checkpoint = &resting;
    FlServer server(core, cfg, clock);
    server.listen("127.0.0.1", 0);  // the generation-0 resting snapshot
  }
  {
    // The only member's fold saves a mid-round snapshot: stop there.
    fl::Server core(tiny_factory(63)(), /*learning_rate=*/0.1);
    cfg.checkpoint = &mid;
    FlServer server(core, cfg, clock);
    server.listen("127.0.0.1", 0);
    struct Kill {};
    server.set_event_hook([](FlServer::Event e) {
      if (e == FlServer::Event::kCheckpointSaved) throw Kill{};
    });
    auto trainer = make_client(0);
    FlClient client(*trainer, FlClientConfig{}, clock);
    client.connect("127.0.0.1", server.port());
    bool killed = false;
    for (int i = 0; i < 10000 && !killed; ++i) {
      client.step(0);
      try {
        server.step(0);
      } catch (const Kill&) {
        killed = true;
      }
      ++t;
    }
    ASSERT_TRUE(killed);
  }

  int manipulations = 0;
  fl::MaliciousServer core(
      tiny_factory(63)(), /*learning_rate=*/0.1,
      [&manipulations](nn::Sequential&) { ++manipulations; });
  const auto before = nn::serialize_state(core.global_model());
  cfg.checkpoint = &mid;
  {
    FlServer server(core, cfg, clock);
    EXPECT_THROW(server.resume_from(), ConfigError);
  }
  EXPECT_EQ(manipulations, 0);
  EXPECT_EQ(core.round(), 0u);
  EXPECT_EQ(nn::serialize_state(core.global_model()), before);

  cfg.checkpoint = &resting;
  FlServer server(core, cfg, clock);
  EXPECT_EQ(server.resume_from(), 0u);
  EXPECT_EQ(manipulations, 0);
}

}  // namespace
}  // namespace oasis::net
