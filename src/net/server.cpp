#include "net/server.h"

#include <poll.h>

#include <algorithm>
#include <chrono>

#include "ckpt/codec.h"
#include "common/error.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::net {

namespace {

obs::Counter& frame_error_counter(NetError::Reason reason) {
  // A handful of distinct reasons; the registry caches by name.
  return obs::counter(std::string("net.frame.error.") +
                      NetError::reason_name(reason));
}

}  // namespace

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct FlServer::Conn {
  enum class State : std::uint8_t {
    kHandshake,  // accepted, awaiting hello or resume
    kParked,     // admitted, awaiting round admission
    kInRound,    // model dispatched, awaiting update
    kReplied,    // update received, awaiting cutover
  };

  Conn(Socket s, std::size_t max_frame_bytes, std::uint64_t now)
      : sock(std::move(s)), decoder(max_frame_bytes), last_activity_ms(now) {}

  Socket sock;
  State state = State::kHandshake;
  std::uint64_t client_id = 0;
  FrameDecoder decoder;
  Outbox outbox;
  std::uint64_t last_activity_ms = 0;
  std::uint64_t rounds_participated = 0;
  index_t updates_this_round = 0;
  bool close_after_flush = false;
};

FlServer::FlServer(fl::Server& core, FlServerConfig config, TimeSource now)
    : core_(core),
      config_(config),
      now_(std::move(now)),
      round_(core, /*streaming_only=*/true) {
  OASIS_CHECK_MSG(config_.cohort_size >= 1, "cohort_size must be >= 1");
  OASIS_CHECK_MSG(config_.rounds >= 1, "rounds must be >= 1");
  OASIS_CHECK_MSG(config_.max_connections >= config_.cohort_size,
                  "max_connections " << config_.max_connections
                                     << " below cohort_size "
                                     << config_.cohort_size);
  OASIS_CHECK_MSG(static_cast<std::uint64_t>(config_.cohort_size) <
                      ckpt::kProgressPerRound,
                  "cohort_size overflows the checkpoint generation stride");
  if (!now_) now_ = steady_now_ms;
  if (config_.selection_seed) {
    selection_.emplace(*config_.selection_seed);
  }
}

FlServer::~FlServer() = default;

void FlServer::listen(const std::string& host, std::uint16_t port) {
  listener_ = tcp_listen(host, port);
  host_ = host;
  port_ = local_port(listener_);
  // A generation-0 resting snapshot at startup means restore never finds an
  // empty directory mid-flight — a crash before the first boundary still has
  // a well-defined (fresh) state to land on. A restarted server already has
  // generations on disk and skips this.
  if (config_.checkpoint != nullptr && config_.checkpoint->generations().empty()) {
    save_checkpoint();
  }
}

std::uint16_t FlServer::port() const {
  OASIS_CHECK_MSG(port_ != 0, "listen() has not been called");
  return port_;
}

index_t FlServer::connection_count() const { return conns_.size(); }

bool FlServer::parked_full() const {
  index_t n = 0;
  for (const auto& c : conns_) {
    if (c.sock.valid() && c.state == Conn::State::kParked) ++n;
  }
  return n >= 2 * config_.cohort_size;
}

void FlServer::fire_event(Event event) {
  if (event_hook_) event_hook_(event);
}

void FlServer::send_frame(Conn& conn, OutFrame frame) {
  static obs::Counter& frames = obs::counter("net.frames.sent");
  static obs::Counter& bytes = obs::counter("net.bytes.sent");
  frames.add(1);
  bytes.add(frame.size());
  conn.outbox.push(std::move(frame));
  pump_write(conn);
}

void FlServer::close_conn(Conn& conn, const char* why) {
  if (!conn.sock.valid()) return;
  obs::counter("net.conn.closed").add(1);
  if (why != nullptr && *why != '\0') {
    obs::counter(std::string("net.conn.close.") + why).add(1);
  }
  conn.sock.close();
}

void FlServer::pump_listener() {
  static obs::Counter& accepted = obs::counter("net.conn.accepted");
  static obs::Counter& over_cap = obs::counter("net.conn.over_capacity");
  if (!listener_.valid()) return;
  while (true) {
    Socket sock = tcp_accept(listener_);
    if (!sock.valid()) break;
    index_t live = 0;
    for (const auto& c : conns_) {
      if (c.sock.valid()) ++live;
    }
    if (live >= config_.max_connections) {
      over_cap.add(1);
      continue;  // Socket destructor closes it — hard admission bound.
    }
    accepted.add(1);
    conns_.emplace_back(std::move(sock), config_.max_frame_bytes, now_());
  }
}

void FlServer::pump_read(Conn& conn, std::uint64_t now) {
  static obs::Counter& bytes_in = obs::counter("net.bytes.received");
  static obs::Counter& frames_in = obs::counter("net.frames.received");
  std::uint8_t buf[16 * 1024];
  std::size_t budget = config_.read_budget_bytes;
  bool read_any = false;
  try {
    while (budget > 0 && conn.sock.valid()) {
      const std::size_t want = std::min(budget, sizeof(buf));
      const long got = read_some(conn.sock, buf, want);
      if (got == 0) break;  // drained (would block)
      if (got < 0) {
        // Orderly close. Mid-frame, that is the drop-mid-frame fault.
        if (conn.decoder.mid_frame()) {
          frame_error_counter(NetError::Reason::kTruncatedFrame).add(1);
          close_conn(conn, "truncated");
        } else {
          close_conn(conn, "peer");
        }
        return;
      }
      read_any = true;
      bytes_in.add(static_cast<std::uint64_t>(got));
      conn.last_activity_ms = now;
      conn.decoder.feed(buf, static_cast<std::size_t>(got));
      budget -= static_cast<std::size_t>(got);
      while (auto frame = conn.decoder.next()) {
        frames_in.add(1);
        handle_frame(conn, std::move(*frame));
        if (!conn.sock.valid()) return;
      }
    }
    if (read_any && conn.decoder.mid_frame()) fire_event(Event::kMidFrame);
  } catch (const NetError& e) {
    // Connection-scoped damage (oversized/unknown frame, bad handshake,
    // socket error): tally, sever this peer, keep serving everyone else.
    frame_error_counter(e.reason()).add(1);
    close_conn(conn, "frame_error");
  }
}

void FlServer::pump_write(Conn& conn) {
  if (!conn.sock.valid()) return;
  try {
    if (!conn.outbox.flush(conn.sock)) return;  // POLLOUT resumes us
  } catch (const NetError&) {
    close_conn(conn, "send_failed");
    return;
  }
  if (conn.close_after_flush) close_conn(conn, "");
}

void FlServer::send_and_close(Conn& conn, OutFrame frame) {
  send_frame(conn, std::move(frame));
  conn.close_after_flush = true;
}

void FlServer::bounce(Conn& conn, obs::Counter& why) {
  why.add(1);
  send_and_close(conn, encode_retry_after(config_.retry_after_ms));
}

bool FlServer::refuse_handshake(Conn& conn, std::uint64_t client_id) {
  static obs::Counter& dup_id = obs::counter("net.conn.duplicate_id");
  if (goodbye_sent_) {
    send_and_close(conn, encode_goodbye());
    return true;
  }
  for (const auto& other : conns_) {
    if (&other != &conn && other.sock.valid() &&
        other.state != Conn::State::kHandshake &&
        other.client_id == client_id) {
      bounce(conn, dup_id);
      return true;
    }
  }
  return false;
}

void FlServer::handle_hello(Conn& conn, const Hello& hello) {
  static obs::Counter& handshakes = obs::counter("net.handshakes");
  static obs::Counter& retry_after = obs::counter("net.admission.retry_after");
  static obs::Counter& parked = obs::counter("net.admission.parked");

  if (refuse_handshake(conn, hello.client_id)) return;
  // Explicit backpressure: a round in flight, or a full parked pool, turns
  // the handshake away with a backoff hint instead of queueing unboundedly.
  if (round_open_ || parked_full()) {
    bounce(conn, retry_after);
    return;
  }
  handshakes.add(1);
  parked.add(1);
  conn.client_id = hello.client_id;
  conn.state = Conn::State::kParked;
  send_frame(conn, encode_welcome(Welcome{core_.round()}));
}

void FlServer::handle_resume(Conn& conn, const Resume& resume) {
  static obs::Counter& resumes = obs::counter("net.session.resumed");
  static obs::Counter& acked_accepted =
      obs::counter("net.session.ack_accepted");
  static obs::Counter& acked_pending = obs::counter("net.session.ack_pending");
  static obs::Counter& acked_parked = obs::counter("net.session.ack_parked");
  static obs::Counter& retry_after = obs::counter("net.admission.retry_after");

  if (refuse_handshake(conn, resume.client_id)) return;
  if (round_open_) {
    const Member* m = member(resume.client_id);
    if (m == nullptr) {
      // Not a member of the open round: same backpressure as a mid-round
      // hello.
      bounce(conn, retry_after);
      return;
    }
    resumes.add(1);
    conn.client_id = resume.client_id;
    conn.updates_this_round = 0;
    if (m->delivered) {
      // Already delivered this round (typically: folded pre-crash, or the
      // ack raced the disconnect). The lost-ack resolution: the client
      // must NOT retransmit — its update is (durably) in the aggregate.
      acked_accepted.add(1);
      conn.state = Conn::State::kReplied;
      send_frame(conn, encode_resume_ack(
                           ResumeAck{round_id_, ResumeStatus::kAccepted}));
      return;
    }
    // Wanted and not held: the client retransmits its cached update, or —
    // if it never computed one for this round — gets the dispatch again.
    // Never both, so the training path runs exactly once.
    acked_pending.add(1);
    conn.state = Conn::State::kInRound;
    const bool holds_this_round =
        resume.has_update && resume.update_round == round_id_;
    send_frame(conn, encode_resume_ack(
                         ResumeAck{round_id_, ResumeStatus::kPending}));
    if (!holds_this_round) send_frame(conn, dispatch_frame(resume.client_id));
    return;
  }

  // No round open. A cached update for a round below the current one was
  // either folded into a committed round or sealed out of it — both closed;
  // the client discards it and parks for the next admission.
  if (parked_full()) {
    bounce(conn, retry_after);
    return;
  }
  resumes.add(1);
  acked_parked.add(1);
  conn.client_id = resume.client_id;
  conn.state = Conn::State::kParked;
  const ResumeStatus status =
      resume.has_update && resume.update_round < core_.round()
          ? ResumeStatus::kExpired
          : ResumeStatus::kNone;
  send_frame(conn, encode_resume_ack(ResumeAck{core_.round(), status}));
}

void FlServer::handle_update(Conn& conn, tensor::ByteBuffer body) {
  static obs::Counter& updates_in = obs::counter("net.update.received");
  updates_in.add(1);
  fl::ClientUpdateMessage msg = decode_update(std::move(body));
  // The wire-level client id is authoritative for bookkeeping, but the
  // payload travels unmodified into the validation pipeline — a spoofed
  // inner id is the pipeline's duplicate screen's problem, same as the
  // in-process path.
  Member* m = member(conn.client_id);
  OASIS_CHECK_MSG(m != nullptr, "update from non-member " << conn.client_id);
  m->delivered = true;
  conn.state = Conn::State::kReplied;
  if (m < members_.data() + fold_frontier_) {
    // The fold already passed this member: offer at once rather than strand
    // the update behind the frontier.
    offer(msg);
  } else {
    m->held.push_back(std::move(msg));
  }
  fold_ready();
}

FlServer::Member* FlServer::member(std::uint64_t wire_id) {
  for (auto& m : members_) {
    if (m.wire_id == wire_id) return &m;
  }
  return nullptr;
}

bool FlServer::offer(const fl::ClientUpdateMessage& msg) {
  if (round_.offer(msg) != fl::RejectReason::kAccepted) return false;
  ++accepts_since_ckpt_;
  fire_event(Event::kUpdateAccepted);
  return true;
}

void FlServer::fold_ready() {
  // A member whose held updates were all rejected stalls the frontier: a
  // resend folds only under an inner id the screen has not seen, or after
  // a wrong-round rejection, which claims no id. Cutover offers past it.
  while (fold_frontier_ < members_.size()) {
    Member& m = members_[fold_frontier_];
    bool folded = false;
    for (const auto& msg : m.held) folded = offer(msg) || folded;
    m.held.clear();
    if (!folded) break;
    ++fold_frontier_;
    if (config_.checkpoint != nullptr && config_.checkpoint_every_accepts > 0 &&
        accepts_since_ckpt_ >= config_.checkpoint_every_accepts) {
      save_checkpoint();
    }
  }
}

void FlServer::handle_frame(Conn& conn, Frame frame) {
  static obs::Counter& stale = obs::counter("net.update.stale");
  static obs::Counter& protocol_err = obs::counter("net.protocol_error");
  static obs::Counter& version_rej = obs::counter("net.version.rejected");
  static obs::Counter& heartbeats_in = obs::counter("net.heartbeat.received");

  switch (frame.type) {
    case FrameType::kHello:
    case FrameType::kResume: {
      if (conn.state != Conn::State::kHandshake) {
        protocol_err.add(1);
        close_conn(conn, "protocol");
        return;
      }
      try {
        if (frame.type == FrameType::kHello) {
          handle_hello(conn, decode_hello(frame.body));
        } else {
          handle_resume(conn, decode_resume(frame.body));
        }
      } catch (const NetError& e) {
        if (e.reason() != NetError::Reason::kBadVersion) throw;
        // Version negotiation: answer an unsupported version with the one we
        // speak, then close — a typed reject instead of a silent drop.
        version_rej.add(1);
        frame_error_counter(NetError::Reason::kBadVersion).add(1);
        send_and_close(conn,
                       encode_version_reject(VersionReject{kProtocolVersion}));
      }
      return;
    }
    case FrameType::kUpdate: {
      if (conn.state == Conn::State::kHandshake) {
        protocol_err.add(1);
        close_conn(conn, "protocol");
        return;
      }
      if (conn.state == Conn::State::kParked) {
        // Not a member of the open round (or no round is open): a straggler
        // crossing the cutover boundary. Dropped here; the round it was
        // meant for is sealed.
        stale.add(1);
        return;
      }
      if (++conn.updates_this_round > 4) {
        // Duplicate delivery is a tolerated fault, an update flood is not.
        protocol_err.add(1);
        close_conn(conn, "update_flood");
        return;
      }
      handle_update(conn, std::move(frame.body));
      return;
    }
    case FrameType::kHeartbeat: {
      // Liveness only — pump_read already refreshed the activity stamp. In
      // kHandshake it would let an unauthenticated peer dodge the handshake
      // deadline, so there it is a protocol error like any other frame.
      if (conn.state == Conn::State::kHandshake) {
        protocol_err.add(1);
        close_conn(conn, "protocol");
        return;
      }
      heartbeats_in.add(1);
      return;
    }
    case FrameType::kWelcome:
    case FrameType::kModel:
    case FrameType::kRetryAfter:
    case FrameType::kRoundResult:
    case FrameType::kGoodbye:
    case FrameType::kResumeAck:
    case FrameType::kVersionReject:
      // Server-to-client vocabulary arriving at the server.
      protocol_err.add(1);
      close_conn(conn, "protocol");
      return;
  }
}

void FlServer::enforce_deadlines(std::uint64_t now) {
  static obs::Counter& idle = obs::counter("net.conn.idle_timeout");
  for (auto& conn : conns_) {
    if (!conn.sock.valid()) continue;
    // The idle deadline targets peers that owe us bytes: an unfinished
    // handshake, a stalled partial frame (slowloris), or an in-round client
    // sitting on its update. Parked clients legitimately idle between
    // rounds and are exempt.
    const bool owes_bytes = conn.state == Conn::State::kHandshake ||
                            conn.state == Conn::State::kInRound ||
                            conn.decoder.mid_frame();
    if (owes_bytes && now - conn.last_activity_ms >= config_.idle_timeout_ms) {
      idle.add(1);
      close_conn(conn, "idle");
    }
  }
}

void FlServer::send_heartbeats(std::uint64_t now) {
  static obs::Counter& heartbeats = obs::counter("net.heartbeat.sent");
  if (config_.heartbeat_ms == 0) return;
  if (now < next_heartbeat_ms_) return;
  next_heartbeat_ms_ = now + config_.heartbeat_ms;
  for (auto& conn : conns_) {
    if (!conn.sock.valid() || conn.close_after_flush) continue;
    if (conn.state == Conn::State::kHandshake) continue;
    heartbeats.add(1);
    send_frame(conn, encode_heartbeat());
  }
}

void FlServer::maybe_start_round(std::uint64_t now) {
  static obs::Counter& started = obs::counter("net.round.started");
  if (round_open_ || goodbye_sent_ || served_ >= config_.rounds) return;
  if (now < next_admission_ms_) return;

  std::vector<index_t> parked;
  for (index_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].sock.valid() && conns_[i].state == Conn::State::kParked) {
      parked.push_back(i);
    }
  }
  if (parked.size() < config_.cohort_size) return;

  // Membership: least-served first (a client bounced by backpressure catches
  // up instead of starving), ties broken by id — deterministic for any
  // connection arrival order.
  std::sort(parked.begin(), parked.end(), [&](index_t a, index_t b) {
    const auto& ca = conns_[a];
    const auto& cb = conns_[b];
    if (ca.rounds_participated != cb.rounds_participated) {
      return ca.rounds_participated < cb.rounds_participated;
    }
    return ca.client_id < cb.client_id;
  });
  parked.resize(config_.cohort_size);

  // Aggregation/dispatch order over the members: ascending id, or — when a
  // selection seed is configured — fl::Simulation's per-round permutation of
  // it, which is what makes loopback serving byte-identical to the
  // in-process engine.
  std::vector<std::uint64_t> sorted_ids;
  sorted_ids.reserve(parked.size());
  for (const auto i : parked) sorted_ids.push_back(conns_[i].client_id);
  std::sort(sorted_ids.begin(), sorted_ids.end());
  if (selection_) {
    const auto perm = selection_->sample_without_replacement(
        sorted_ids.size(), sorted_ids.size());
    for (const auto p : perm) members_.emplace_back(sorted_ids[p]);
  } else {
    for (const auto id : sorted_ids) members_.emplace_back(id);
  }

  started.add(1);
  round_id_ = core_.round();
  round_open_ = true;
  round_started_ms_ = now;
  round_deadline_ms_ = now + config_.round_timeout_ms;
  round_.open();  // the rest of the round state was cleared when it closed

  begin_dispatch();
  for (const auto& m : members_) {
    OutFrame frame = dispatch_frame(m.wire_id);
    for (const auto i : parked) {
      auto& conn = conns_[i];
      if (conn.client_id == m.wire_id) {
        conn.state = Conn::State::kInRound;
        conn.updates_this_round = 0;
        send_frame(conn, std::move(frame));
        break;
      }
    }
  }
}

void FlServer::begin_dispatch() {
  // begin_round replaces the bytes the model frames borrow: a frame still
  // queued (a straggler that never drained it) gets a copy of its own.
  for (const auto& borrowed : dispatch_payloads_) {
    if (borrowed.use_count() == 1) continue;
    const auto owned = std::make_shared<const tensor::ByteBuffer>(*borrowed);
    for (auto& conn : conns_) conn.outbox.repoint(borrowed, owned);
  }
  dispatch_payloads_.clear();
  core_.begin_round();
}

OutFrame FlServer::dispatch_frame(std::uint64_t client_id) {
  const fl::GlobalModelMessage& msg = core_.dispatch_to(client_id);
  for (const auto& payload : dispatch_payloads_) {
    if (payload.get() == &msg.model_state) {
      return model_frame(msg.round, payload);
    }
  }
  // Borrowed, not copied: the no-op deleter leaves the bytes to the core.
  dispatch_payloads_.emplace_back(&msg.model_state,
                                  [](const tensor::ByteBuffer*) {});
  return model_frame(msg.round, dispatch_payloads_.back());
}

void FlServer::maybe_finish_round(std::uint64_t now) {
  if (!round_open_) return;
  // The round completes when every cohort member has delivered an update
  // (any verdict) — a member that dropped its connection gets until the
  // round deadline to reconnect and resolve its in-flight update via the
  // resume handshake, instead of being sealed out the moment its socket
  // died.
  const bool complete = std::all_of(members_.begin(), members_.end(),
                                    [](const Member& m) { return m.delivered; });
  if (complete || now >= round_deadline_ms_) cutover(now);
}

void FlServer::cutover(std::uint64_t now) {
  static obs::Counter& committed_c = obs::counter("net.round.committed");
  static obs::Counter& aborted_c = obs::counter("net.round.aborted");
  static obs::Counter& stragglers_c = obs::counter("net.round.stragglers");
  static obs::Histogram& latency_h = obs::histogram("net.round.latency_ms");

  // Seal the round: offer what is still held past the frontier in the
  // deterministic round order (duplicate deliveries stay adjacent, exactly
  // like the in-process engine's back-to-back duplicate posting). The
  // prefix up to fold_frontier_ is already folded — and, with a checkpoint
  // manager, already durable.
  for (std::size_t i = fold_frontier_; i < members_.size(); ++i) {
    for (const auto& msg : members_[i].held) offer(msg);
    if (!members_[i].delivered) stragglers_c.add(1);
  }

  bool committed = false;
  try {
    round_.close(fl::RoundCore::quorum_needed(config_.quorum_fraction,
                                              members_.size()));
    committed = true;
    committed_c.add(1);
    ++served_;
  } catch (const QuorumError&) {
    // Quorum shortfall: the model was never touched, so dropping the round
    // state IS the rollback (the shard engine's contract).
    aborted_c.add(1);
  }
  const double latency = static_cast<double>(now - round_started_ms_);
  latencies_ms_.push_back(latency);
  latency_h.record(latency);

  const RoundResult result{round_id_, committed};
  clear_round();

  // Boundary durability: the committed model reaches disk BEFORE any client
  // learns the outcome, so a crash in the commit→ack window restores to the
  // new round and reconnecting clients resolve their (now expired) in-flight
  // updates via the resume handshake — acknowledged progress is never lost.
  if (config_.checkpoint != nullptr) save_checkpoint();
  fire_event(Event::kPreResultSend);

  for (auto& conn : conns_) {
    if (!conn.sock.valid()) continue;
    if (conn.state == Conn::State::kInRound ||
        conn.state == Conn::State::kReplied) {
      ++conn.rounds_participated;
      conn.state = Conn::State::kParked;
      send_frame(conn, encode_round_result(result));
    }
  }
  next_admission_ms_ = now + config_.admission_window_ms;
  if (served_ >= config_.rounds) finish_serving();
}

void FlServer::clear_round() {
  round_open_ = false;
  members_.clear();
  fold_frontier_ = 0;
}

void FlServer::finish_serving() {
  goodbye_sent_ = true;
  listener_.close();
  for (auto& conn : conns_) {
    if (conn.sock.valid()) send_and_close(conn, encode_goodbye());
  }
}

// ---- Checkpoint / restore (DESIGN.md §5j) -----------------------------------

std::uint64_t FlServer::checkpoint_generation() const {
  // Resting state after protocol round t is round t at rest; a mid-round
  // snapshot counts the fold frontier as progress.
  return round_open_
             ? ckpt::progress_generation(round_id_, true, fold_frontier_)
             : ckpt::progress_generation(core_.round(), false, 0);
}

tensor::ByteBuffer FlServer::encode_checkpoint() {
  ckpt::SectionWriter meta;
  meta.u8(static_cast<std::uint8_t>(ckpt::Engine::kSocket));
  meta.u64(core_.round());
  meta.u64(served_);
  // Configuration echo: a snapshot only fits the federation it came from.
  meta.u64(config_.cohort_size);
  meta.u64(config_.rounds);
  meta.f64(static_cast<double>(config_.quorum_fraction));
  meta.u8(selection_ ? 1 : 0);
  meta.u8(round_open_ ? 1 : 0);
  if (round_open_) {
    // The open round is the core's round; its cohort in fold order and the
    // fold frontier follow.
    std::vector<std::uint64_t> order;
    order.reserve(members_.size());
    for (const auto& m : members_) order.push_back(m.wire_id);
    meta.u64s(order);
    meta.u64(fold_frontier_);
  }
  ckpt::SnapshotBuilder builder;
  builder.add("meta", meta.take());
  builder.add("model", nn::serialize_state(core_.global_model()));
  if (selection_) {
    ckpt::SectionWriter rng;
    ckpt::write_rng_state(rng, selection_->state());
    builder.add("rng", rng.take());
  }
  if (round_open_) {
    ckpt::SectionWriter agg;
    round_.write_fold(agg);
    builder.add("agg", agg.take());
  }
  return builder.finish();
}

void FlServer::apply_snapshot(const ckpt::Snapshot& snap) {
  using Reason = CheckpointError::Reason;

  // Decode and cross-check EVERYTHING before the first mutation, so a
  // snapshot from the wrong engine or federation (or a malformed section)
  // leaves the live server exactly as it was.
  ckpt::SectionReader meta(snap.section("meta"), "meta");
  ckpt::expect_engine(meta, ckpt::Engine::kSocket);
  const std::uint64_t round = meta.u64();
  const std::uint64_t served = meta.u64();
  const std::uint64_t cohort_cfg = meta.u64();
  const std::uint64_t rounds_cfg = meta.u64();
  const double quorum = meta.f64();
  const bool has_selection = meta.u8() != 0;
  const bool mid = meta.u8() != 0;
  std::vector<std::uint64_t> order;
  std::uint64_t frontier = 0;
  if (mid) {
    order = meta.u64s();
    frontier = meta.u64();
  }
  meta.expect_end();
  if (mid && dynamic_cast<const fl::MaliciousServer*>(&core_) != nullptr) {
    throw ConfigError(
        "a mid-round snapshot cannot be resumed under a MaliciousServer: "
        "resume re-runs begin_round(), re-applying its model manipulation");
  }
  if (cohort_cfg != config_.cohort_size || rounds_cfg != config_.rounds ||
      quorum != static_cast<double>(config_.quorum_fraction) ||
      has_selection != selection_.has_value()) {
    throw CheckpointError(
        Reason::kStateMismatch,
        "snapshot belongs to a differently configured federation (cohort " +
            std::to_string(cohort_cfg) + ", " + std::to_string(rounds_cfg) +
            " rounds)");
  }
  if (mid && frontier > order.size()) {
    throw CheckpointError(Reason::kStateMismatch,
                          "mid-round snapshot progress is inconsistent "
                          "(frontier " +
                              std::to_string(frontier) + " of " +
                              std::to_string(order.size()) + " members)");
  }

  common::Rng::State sel_state{};
  if (has_selection) {
    ckpt::SectionReader rng(snap.section("rng"), "rng");
    sel_state = ckpt::read_rng_state(rng);
    rng.expect_end();
  }

  fl::FoldState fold;
  if (mid) {
    ckpt::SectionReader agg(snap.section("agg"), "agg");
    fold = fl::RoundCore::read_fold(agg);
    agg.expect_end();
  }

  const tensor::ByteBuffer& model_bytes = snap.section("model");
  ckpt::load_model_section(
      [&] { nn::deserialize_state(core_.global_model(), model_bytes); });
  core_.restore_round(round);
  served_ = served;
  if (has_selection) selection_->set_state(sel_state);
  accepts_since_ckpt_ = 0;
  clear_round();
  if (mid) {
    round_open_ = true;
    round_id_ = round;
    fold_frontier_ = frontier;
    // The folded prefix of the round order counts as delivered (drives
    // completion), and the restored screen holds every id it had claimed,
    // so a resend of a folded update is rejected — no double count — and
    // an id a rejected update claimed stays claimed, as it would have
    // without the restart. Unfolded members resend freely.
    for (std::size_t i = 0; i < order.size(); ++i) {
      members_.emplace_back(order[i]).delivered = i < frontier;
    }
    round_.restore(std::move(fold));
    // Re-arm the collection deadline from restore time and rebuild the
    // dispatch (begin_round is pure: round id + current model bytes) so
    // resumed members that never trained can be re-dispatched.
    const std::uint64_t now = now_();
    round_started_ms_ = now;
    round_deadline_ms_ = now + config_.round_timeout_ms;
    begin_dispatch();
  } else {
    round_.open();
  }
}

std::uint64_t FlServer::resume_from() {
  OASIS_CHECK_MSG(config_.checkpoint != nullptr,
                  "resume_from() requires a checkpoint manager");
  static obs::Counter& restored = obs::counter("net.ckpt.restored");
  const auto loaded = config_.checkpoint->load_latest_valid();
  apply_snapshot(loaded.snapshot);
  restored.add(1);
  return core_.round();
}

void FlServer::save_checkpoint() {
  if (config_.checkpoint == nullptr) return;
  static obs::Counter& saved = obs::counter("net.ckpt.saved");
  static obs::Counter& degraded = obs::counter("net.ckpt.degraded");
  try {
    config_.checkpoint->save(checkpoint_generation(), encode_checkpoint());
    saved.add(1);
    accepts_since_ckpt_ = 0;
    ckpt_degraded_ = false;
    fire_event(Event::kCheckpointSaved);
  } catch (const Error&) {
    // Graceful degradation: the round proceeds in memory; a later boundary
    // (or K-accept cadence point) tries the disk again. The counter — and
    // checkpoint_degraded() — make the lost durability observable.
    degraded.add(1);
    ckpt_degraded_ = true;
    accepts_since_ckpt_ = 0;
  }
}

bool FlServer::step(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  const bool have_listener = listener_.valid();
  if (have_listener) {
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  }
  for (const auto& conn : conns_) {
    if (!conn.sock.valid()) continue;
    short events = POLLIN;
    if (!conn.outbox.empty()) events |= POLLOUT;
    fds.push_back(pollfd{conn.sock.fd(), events, 0});
  }
  if (!fds.empty()) {
    ::poll(fds.data(), fds.size(), timeout_ms);
  }

  pump_listener();
  const std::uint64_t now = now_();
  // Pump every live connection each step: poll readiness is a wakeup hint,
  // not a gate, and the non-blocking reads/writes are cheap no-ops on quiet
  // sockets. This keeps the loop correct even for bytes that arrived
  // between poll() and now.
  for (auto& conn : conns_) {
    if (conn.sock.valid()) pump_read(conn, now);
  }
  for (auto& conn : conns_) {
    if (conn.sock.valid()) pump_write(conn);
  }
  enforce_deadlines(now);
  send_heartbeats(now);
  maybe_finish_round(now);
  maybe_start_round(now);

  // Sweep closed connections.
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return !c.sock.valid(); }),
               conns_.end());
  return !finished();
}

bool FlServer::finished() const {
  return served_ >= config_.rounds && conns_.empty();
}

void FlServer::serve() {
  while (step(/*timeout_ms=*/50)) {
  }
}

}  // namespace oasis::net
