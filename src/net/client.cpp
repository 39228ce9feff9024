#include "net/client.h"

#include <poll.h>

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "fl/client_step.h"
#include "obs/obs.h"

namespace oasis::net {

FlClient::FlClient(fl::Client& core, FlClientConfig config, TimeSource now)
    : core_(core),
      config_(config),
      now_(std::move(now)),
      decoder_(config.max_frame_bytes) {
  OASIS_CHECK_MSG(config_.max_attempts >= 1, "max_attempts must be >= 1");
  OASIS_CHECK_MSG(config_.backoff_ms >= 1, "backoff_ms must be >= 1");
  if (!now_) now_ = steady_now_ms;
}

FlClient::~FlClient() = default;

void FlClient::set_defense_stack(fl::DefenseStackPtr stack) {
  defense_ = std::move(stack);
}

void FlClient::connect(std::string host, std::uint16_t port) {
  host_ = std::move(host);
  port_ = port;
  state_ = State::kBackoff;
  attempt_ = 0;
  next_connect_ms_ = 0;  // first attempt is immediate
}

std::uint64_t FlClient::backoff_wait() const {
  // Exponential: attempt k waits backoff_ms · 2^(k-1), capped. The shift is
  // clamped so a long outage cannot overflow the doubling before the cap
  // applies.
  const std::uint64_t doublings =
      std::min<std::uint64_t>(attempt_ > 0 ? attempt_ - 1 : 0, 20);
  std::uint64_t wait =
      std::min(config_.backoff_ms << doublings, config_.backoff_max_ms);
  if (config_.jitter_seed && wait > 1) {
    // Deterministic de-synchronization: a pure function of (seed, client,
    // attempt) — every client lands on a different phase after a server
    // restart, yet the same run replays the same schedule.
    common::Rng rng(*config_.jitter_seed ^
                    (config_.client_id * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<std::uint64_t>(attempt_) << 32));
    wait += static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wait / 2)));
  }
  return wait;
}

void FlClient::schedule_retry(std::uint64_t now) {
  static obs::Counter& retries = obs::counter("net.client.retries");
  static obs::Counter& attempts_c = obs::counter("net.reconnect.attempts");
  static obs::Counter& backoff_c =
      obs::counter("net.reconnect.backoff_ms_total");
  drop_connection();
  ++attempt_;
  if (attempt_ >= config_.max_attempts) {
    throw NetError(NetError::Reason::kRetryExhausted,
                   "client " + std::to_string(config_.client_id) + ": " +
                       std::to_string(attempt_) + " connection attempts");
  }
  retries.add(1);
  ++retries_;
  attempts_c.add(1);
  // A retry-after hint from the server's backpressure overrides the
  // exponential schedule — the server knows when the next admission opens.
  std::uint64_t wait;
  if (retry_hint_ms_) {
    wait = *retry_hint_ms_;
    retry_hint_ms_.reset();
  } else {
    wait = backoff_wait();
  }
  backoff_c.add(wait);
  backoff_total_ += wait;
  next_connect_ms_ = now + wait;
  state_ = State::kBackoff;
}

void FlClient::drop_connection() {
  sock_.close();
  decoder_ = FrameDecoder(config_.max_frame_bytes);
  outbox_.clear();
  close_after_flush_ = false;
  replied_this_conn_ = false;
}

void FlClient::open_connection(std::uint64_t now) {
  static obs::Counter& connects = obs::counter("net.client.connects");
  static obs::Counter& resumes_c =
      obs::counter("net.reconnect.sessions_resumed");
  sock_ = tcp_connect(host_, port_);
  connects.add(1);
  state_ = State::kActive;
  last_activity_ms_ = now;
  next_heartbeat_ms_ = now + config_.heartbeat_ms;
  if (session_) {
    // The resume handshake carries the in-flight-update claim that resolves
    // the lost-ack ambiguity server-side.
    resumes_c.add(1);
    ++resumed_;
    outbox_.push(encode_resume(Resume{config_.client_id, last_round_,
                                      cache_.has_value(),
                                      cache_ ? cache_->round : 0}));
  } else {
    outbox_.push(encode_hello(Hello{config_.client_id}));
  }
  flush_outbox();
}

void FlClient::flush_outbox() {
  if (!outbox_.flush(sock_)) return;  // kernel buffer full; resume next step
  if (close_after_flush_) {
    // The mid-frame truncation fault: the queued prefix is on the wire,
    // the rest never will be.
    drop_connection();
  }
}

void FlClient::resend_cached() {
  static obs::Counter& resends_c = obs::counter("net.reconnect.cached_resends");
  resends_c.add(1);
  ++resends_;
  cache_->held_until_ms.reset();
  outbox_.push(cache_->frame);
  replied_this_conn_ = true;
  flush_outbox();
}

void FlClient::send_update(const OutFrame& frame, int copies) {
  static obs::Counter& sent_c = obs::counter("net.client.updates_sent");
  sent_c.add(1);
  ++sent_;
  for (int i = 0; i < copies; ++i) outbox_.push(frame);
  replied_this_conn_ = true;
  flush_outbox();
}

void FlClient::forget_session() {
  // A client that abandoned or sabotaged a round does not get to resume
  // into it: it rejoins with a plain hello and is bounced until it closes.
  session_ = false;
  cache_.reset();
}

void FlClient::handle_model(const fl::GlobalModelMessage& msg,
                            std::uint64_t now) {
  static obs::Counter& models = obs::counter("net.client.models_received");
  static obs::Counter& dropped_c = obs::counter("net.client.updates_dropped");
  models.add(1);
  if (cache_) {
    if (msg.round == cache_->round) {
      // A round this client already trained, re-dispatched: the server
      // restored a resting snapshot and re-opened it. Answer from the cache
      // — handle_round must not run twice for one round, or the local RNG
      // stream advances twice and the run stops being bit-identical to its
      // uninterrupted twin.
      resend_cached();
      return;
    }
    if (msg.round < cache_->round) return;  // stale dispatch; ignore
    cache_.reset();  // a newer round supersedes the in-flight one
  }
  // Decided before training, as in process: a dropout never trains, so its
  // RNG stream stays where the in-process twin's does.
  const fl::ClientFault fault =
      plan_.decide(msg.round, /*attempt=*/0, config_.client_id);
  if (fault.kind == fl::FaultKind::kDropout) {
    // Vanish without a word; the server's round deadline (or the rest of
    // the cohort) moves on without us.
    dropped_c.add(1);
    forget_session();
    drop_connection();
    state_ = State::kBackoff;
    next_connect_ms_ = now + config_.backoff_ms;
    return;
  }
  // The defense stack, then a Byzantine or poison fault, run on the
  // gradient tensors before the one serialization, so the wire — and the
  // byte-exact frame cache — carry the transformed update.
  std::optional<fl::ClientUpdateMessage> update = fl::run_client_round(
      core_, msg,
      {defense_.get(), {}, &plan_, fault, msg.round, /*attempt=*/0});
  if (!update) {
    // The audit gate refused the dispatched model. Graceful refusal = silent
    // non-reply: the session stays up (an honest client has nothing to
    // apologize for), the server's round deadline excludes us like a
    // straggler, and a re-dispatch of the same round re-refuses
    // deterministically — no cache entry is ever created.
    static obs::Counter& refused_c = obs::counter("net.client.rounds_refused");
    refused_c.add(1);
    ++refused_;
    return;
  }
  if (fault.kind == fl::FaultKind::kCorrupt &&
      fault.corruption == fl::CorruptionKind::kTruncate) {
    // The mid-frame truncation fault: half the frame is on the wire, the
    // rest never will be.
    tensor::ByteBuffer half = encode_update(*update);
    half.resize(half.size() / 2);
    forget_session();
    close_after_flush_ = true;
    send_update(half, 1);
    if (state_ == State::kActive && !sock_.valid()) {
      state_ = State::kBackoff;
      next_connect_ms_ = now + config_.backoff_ms;
    }
    return;
  }
  plan_.apply(*update, fault, msg.round, /*attempt=*/0, config_.client_id);
  // Cache the frame exactly as sent: a reconnect retransmits these bytes,
  // so the server-side fold sees identical input either way.
  cache_ = CachedUpdate{msg.round, update_frame(std::move(*update)),
                        std::nullopt};
  if (fault.kind == fl::FaultKind::kStraggler) {
    // pump_active sends it once the delay has passed.
    cache_->held_until_ms = now + fault.delay_ticks;
    return;
  }
  const bool duplicate = fault.kind == fl::FaultKind::kCorrupt &&
                         fault.corruption == fl::CorruptionKind::kDuplicate;
  send_update(cache_->frame, duplicate ? 2 : 1);
}

void FlClient::handle_resume_ack(const ResumeAck& ack) {
  session_ = true;
  last_round_ = ack.round;
  switch (ack.status) {
    case ResumeStatus::kAccepted:
      // The update is durably folded server-side; retransmitting would just
      // bounce off the duplicate screen. Hold the cache until the round's
      // result lands (a second crash may still rewind past this fold's
      // snapshot only if it was never saved — in which case the server
      // answers kPending next time).
      replied_this_conn_ = true;
      return;
    case ResumeStatus::kPending:
      // Wanted and not held. If the cache matches the open round, those
      // exact bytes go back on the wire; otherwise the server is already
      // re-dispatching the model and handle_model takes it from there.
      if (cache_ && cache_->round == ack.round) resend_cached();
      return;
    case ResumeStatus::kExpired:
      // The round the cache targeted closed without us (committed before
      // the crash, or sealed by deadline). Either way it is unusable now.
      cache_.reset();
      return;
    case ResumeStatus::kNone:
      // Parked between rounds. The cache, if any, survives: a resting
      // restore re-opens the same round and the cached bytes answer its
      // re-dispatch.
      return;
  }
}

void FlClient::handle_frame(Frame frame, std::uint64_t now) {
  static obs::Counter& bounced_c = obs::counter("net.client.retry_after");
  static obs::Counter& committed_c = obs::counter("net.client.rounds_committed");
  // Any well-formed frame proves the server is alive, so the attempt budget
  // becomes a bound on CONSECUTIVE failures without server contact — a
  // retry-after bounce storm during a long round cannot exhaust it, while a
  // dead endpoint (connection refused over and over) still does.
  attempt_ = 0;
  switch (frame.type) {
    case FrameType::kWelcome: {
      const Welcome welcome = decode_welcome(frame.body);
      session_ = true;
      last_round_ = welcome.round;
      return;
    }
    case FrameType::kModel:
      handle_model(decode_model(std::move(frame.body)), now);
      return;
    case FrameType::kRetryAfter: {
      // Backpressure: the federation is mid-round or full. Not a failure —
      // park ourselves for the hinted backoff and try again.
      bounced_c.add(1);
      ++bounced_;
      retry_hint_ms_ = decode_retry_after(frame.body);
      schedule_retry(now);
      return;
    }
    case FrameType::kRoundResult: {
      const RoundResult result = decode_round_result(frame.body);
      if (cache_ && result.round >= cache_->round) cache_.reset();
      last_round_ = result.round + 1;
      if (replied_this_conn_) {
        ++completed_;
        replied_this_conn_ = false;
      }
      if (result.committed) {
        committed_c.add(1);
        ++committed_;
      }
      return;
    }
    case FrameType::kResumeAck:
      handle_resume_ack(decode_resume_ack(frame.body));
      return;
    case FrameType::kHeartbeat:
      // Liveness only; the read that delivered it already refreshed
      // last_activity_ms_, which is the whole point.
      return;
    case FrameType::kVersionReject: {
      // Fatal, not retryable: the endpoint speaks a different protocol
      // version, and reconnecting will only be rejected again.
      const VersionReject reject = decode_version_reject(frame.body);
      throw NetError(NetError::Reason::kBadVersion,
                     "server rejected protocol version " +
                         std::to_string(kProtocolVersion) + "; it speaks " +
                         std::to_string(reject.supported_version));
    }
    case FrameType::kGoodbye:
      goodbye_ = true;
      drop_connection();
      state_ = State::kDone;
      return;
    case FrameType::kHello:
    case FrameType::kUpdate:
    case FrameType::kResume:
      // Client-to-server vocabulary arriving at the client.
      throw NetError(NetError::Reason::kProtocol,
                     std::string("unexpected ") + to_string(frame.type) +
                         " frame from server");
  }
}

void FlClient::pump_active(int timeout_ms, std::uint64_t now) {
  pollfd pfd{sock_.fd(), POLLIN, 0};
  if (!outbox_.empty()) pfd.events |= POLLOUT;
  ::poll(&pfd, 1, timeout_ms);

  try {
    if (!outbox_.empty()) flush_outbox();
    if (state_ != State::kActive) return;  // flush may have dropped us
    std::uint8_t buf[16 * 1024];
    while (sock_.valid()) {
      const long got = read_some(sock_, buf, sizeof(buf));
      if (got == 0) break;  // drained
      if (got < 0) {
        // Peer closed. Normal after kGoodbye; otherwise reconnect.
        if (goodbye_) {
          drop_connection();
          state_ = State::kDone;
        } else {
          schedule_retry(now);
        }
        return;
      }
      last_activity_ms_ = now;
      decoder_.feed(buf, static_cast<std::size_t>(got));
      while (auto frame = decoder_.next()) {
        handle_frame(std::move(*frame), now);
        if (state_ != State::kActive) return;
      }
    }
    if (cache_ && cache_->held_until_ms && now >= *cache_->held_until_ms) {
      cache_->held_until_ms.reset();
      send_update(cache_->frame, 1);
    }
    if (config_.heartbeat_ms > 0 && state_ == State::kActive &&
        now >= next_heartbeat_ms_) {
      static obs::Counter& heartbeats = obs::counter("net.heartbeat.sent");
      next_heartbeat_ms_ = now + config_.heartbeat_ms;
      heartbeats.add(1);
      outbox_.push(encode_heartbeat());
      flush_outbox();
    }
    if (state_ == State::kActive &&
        now - last_activity_ms_ >= config_.io_timeout_ms) {
      // No bytes (not even a heartbeat) inside the deadline: the peer may be
      // a dead-but-open socket. Reconnect — resuming beats hanging.
      schedule_retry(now);
    }
  } catch (const NetError& e) {
    if (e.reason() == NetError::Reason::kRetryExhausted ||
        e.reason() == NetError::Reason::kBadVersion) {
      throw;
    }
    obs::counter(std::string("net.client.error.") +
                 NetError::reason_name(e.reason()))
        .add(1);
    schedule_retry(now);
  }
}

bool FlClient::step(int timeout_ms) {
  OASIS_CHECK_MSG(!host_.empty(), "connect() has not been called");
  if (state_ == State::kDone) return false;
  const std::uint64_t now = now_();
  if (state_ == State::kBackoff) {
    if (now < next_connect_ms_) {
      if (timeout_ms > 0) {
        const std::uint64_t remaining = next_connect_ms_ - now;
        ::poll(nullptr, 0,
               static_cast<int>(std::min<std::uint64_t>(
                   remaining, static_cast<std::uint64_t>(timeout_ms))));
      }
      return true;
    }
    try {
      open_connection(now);
    } catch (const NetError&) {
      schedule_retry(now);
      return true;
    }
  }
  if (state_ == State::kActive) pump_active(timeout_ms, now);
  return state_ != State::kDone;
}

std::uint64_t FlClient::run(const std::string& host, std::uint16_t port) {
  connect(host, port);
  while (step(/*timeout_ms=*/20)) {
  }
  return completed_;
}

}  // namespace oasis::net
