// net::FlClient — drives an fl::Client's training over a socket.
//
// A steppable state machine mirroring net::FlServer: step() connects (with
// exponential retry backoff and deterministic seeded jitter, honoring
// retry-after hints from the server's backpressure), handshakes, trains on
// each dispatched model via fl::Client::handle_round, and uploads the
// resulting update, until the server says goodbye or the retry budget is
// exhausted.
//
// Session resumption (DESIGN.md §5j): after the first welcome the client
// holds a session; every reconnect replaces the hello with a kResume frame
// carrying its id and — crucially — whether it still holds a computed update
// that was never acknowledged. The server's ResumeAck resolves the lost-ack
// ambiguity: kAccepted (the update is durably folded; do not retransmit),
// kPending (retransmit the CACHED frame bytes), or kExpired (the round
// closed; discard). The client never calls handle_round twice for the same
// round — retraining would advance the local RNG stream a second time and
// break the bit-identity contract — so a re-dispatched round it already
// trained is answered from the cache, byte-for-byte what it sent the first
// time.
//
// Liveness: the client enforces a no-progress deadline (io_timeout_ms) and
// reconnects through a dead-but-open socket instead of hanging; a slow but
// alive server keeps the session up by heartbeating (FlServerConfig::
// heartbeat_ms). With heartbeat_ms set here, the client heartbeats too, so
// the server's idle deadline tolerates long client-side stalls.
//
// Determinism: all deadlines and backoff go through the injected TimeSource
// (the runtime::VirtualClock idiom) — a test advancing a tick counter by
// hand observes the exact same reconnect schedule on every run, and the
// backoff jitter is a pure function of (jitter_seed, client_id, attempt),
// never of wall time. The blocking run() wraps step() with the steady clock
// for real deployments.
//
// Fault injection: set_fault_plan installs the same fl::FaultPlan the
// in-process round loop uses, with the protocol round as its ticket. The
// fault is decided when a model arrives, before training, as in process:
// a dropout closes the connection without training; a straggler's update is
// held for delay_ticks ms of the TimeSource; a truncation sends half the
// frame and closes; a duplicate is sent twice; the other corruptions damage
// the serialized update (the wire half of FaultPlan::apply); a poison or
// Byzantine fault rewrites the gradients before their one serialization
// (fl::run_client_round). A dropout or truncation also forgets the
// session: the client rejoins with a plain hello and sits out the rest of
// the round under the server's backpressure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fl/client.h"
#include "fl/defense.h"
#include "fl/fault.h"
#include "net/frame.h"
#include "net/server.h"  // TimeSource
#include "net/socket.h"

namespace oasis::net {

struct FlClientConfig {
  /// Wire-level client id presented in the hello (must match the id space
  /// the server's selection permutation is defined over).
  std::uint64_t client_id = 0;
  /// CONSECUTIVE connection attempts without server contact before run()
  /// gives up with NetError{kRetryExhausted}. Any well-formed frame (even a
  /// retry-after bounce) resets the budget; only a dead endpoint — refused
  /// connections or silence, over and over — exhausts it.
  index_t max_attempts = 64;
  /// Exponential backoff base: attempt k waits min(backoff_ms · 2^(k-1),
  /// backoff_max_ms), plus jitter when seeded. A retry-after frame
  /// overrides the wait with the server's hint.
  std::uint64_t backoff_ms = 10;
  /// Ceiling on one backoff wait (pre-jitter).
  std::uint64_t backoff_max_ms = 2'000;
  /// When set, each wait adds a deterministic jitter in [0, wait/2] drawn
  /// from this seed, the client id, and the attempt number — a restarted
  /// server is not greeted by a synchronized thundering herd, yet the
  /// schedule is still replayable. Unset = no jitter.
  std::optional<std::uint64_t> jitter_seed;
  /// No-progress deadline while connected; expiry forces a reconnect.
  std::uint64_t io_timeout_ms = 30'000;
  /// Interval between client-sent kHeartbeat frames while connected and
  /// handshaked. 0 = no heartbeats.
  std::uint64_t heartbeat_ms = 0;
  /// Hard ceiling on one inbound frame body.
  std::size_t max_frame_bytes = kDefaultMaxBodyBytes;
};

class FlClient {
 public:
  /// `core` must outlive the FlClient. `now` defaults to the steady clock.
  FlClient(fl::Client& core, FlClientConfig config, TimeSource now = {});
  ~FlClient();

  FlClient(const FlClient&) = delete;
  FlClient& operator=(const FlClient&) = delete;

  /// Installs the fault schedule (see the file comment). A
  /// default-constructed plan, the default, injects nothing.
  void set_fault_plan(fl::FaultPlan plan) { plan_ = std::move(plan); }

  /// Installs the client-side defense stack, applied to every freshly
  /// trained update's gradients before its fault and before the one
  /// serialization — so the wire (and the frame cache) carries the
  /// defended bytes. A mask stage needs
  /// the stack's static cohort (DefenseStack::set_static_cohort): the wire
  /// protocol does not announce the round's membership. nullptr disables.
  ///
  /// Interacts with the audit gate (fl::Client::set_model_auditor): when
  /// the core refuses a dispatched model (AuditError), this client simply
  /// never replies for that round — the server's deadline excludes it like
  /// a straggler, and a re-dispatch re-refuses deterministically. The
  /// refusal bumps net.client.rounds_refused.
  void set_defense_stack(fl::DefenseStackPtr stack);

  /// Sets the federation endpoint and arms the first connection attempt.
  void connect(std::string host, std::uint16_t port);

  /// One iteration: connect/reconnect when due, pump socket IO, train on any
  /// dispatched model, queue the update. Returns false once the server said
  /// goodbye and the connection drained. Throws NetError{kRetryExhausted}
  /// when the attempt budget runs out and NetError{kBadVersion} when the
  /// server rejects this protocol version (fatal — no amount of retrying
  /// fixes an incompatible dialect). `timeout_ms` bounds the internal
  /// poll/backoff sleep; pass 0 under a virtual TimeSource.
  bool step(int timeout_ms);

  /// connect() + step() until goodbye. Returns rounds participated in (an
  /// update was uploaded and the round's result was received).
  std::uint64_t run(const std::string& host, std::uint16_t port);

  [[nodiscard]] std::uint64_t rounds_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t rounds_committed() const { return committed_; }
  [[nodiscard]] std::uint64_t updates_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t retry_after_bounces() const { return bounced_; }
  /// Reconnects that used the kResume session handshake.
  [[nodiscard]] std::uint64_t sessions_resumed() const { return resumed_; }
  /// Updates answered from the cache instead of retraining (lost-ack
  /// recoveries and resting-restore re-dispatches).
  [[nodiscard]] std::uint64_t cached_resends() const { return resends_; }
  /// Rounds the audit gate refused (no update was ever produced or sent).
  [[nodiscard]] std::uint64_t rounds_refused() const { return refused_; }
  /// Total milliseconds spent in backoff waits (jitter included).
  [[nodiscard]] std::uint64_t backoff_ms_total() const { return backoff_total_; }
  [[nodiscard]] bool finished() const { return state_ == State::kDone; }

 private:
  enum class State : std::uint8_t {
    kBackoff,  // disconnected, waiting for next_connect_ms_
    kActive,   // connected (hello/resume queued), serving frames
    kDone,     // goodbye received, socket drained
  };

  /// The trained-and-encoded update for one round, byte-for-byte as first
  /// sent: a head and the shared payload the outbox sends from. Held until
  /// the server acknowledges the round's outcome, so a reconnect can
  /// retransmit without retraining.
  struct CachedUpdate {
    std::uint64_t round = 0;
    OutFrame frame;
    /// A straggler's update is not sent before this TimeSource instant.
    std::optional<std::uint64_t> held_until_ms;
  };

  void schedule_retry(std::uint64_t now);
  [[nodiscard]] std::uint64_t backoff_wait() const;
  void open_connection(std::uint64_t now);
  void pump_active(int timeout_ms, std::uint64_t now);
  void handle_frame(Frame frame, std::uint64_t now);
  void handle_model(const fl::GlobalModelMessage& msg, std::uint64_t now);
  /// Queues `copies` of `frame` and counts one update sent.
  void send_update(const OutFrame& frame, int copies);
  void forget_session();
  void handle_resume_ack(const ResumeAck& ack);
  void resend_cached();
  void flush_outbox();
  void drop_connection();

  fl::Client& core_;
  FlClientConfig config_;
  TimeSource now_;
  fl::FaultPlan plan_;
  fl::DefenseStackPtr defense_;
  std::string host_;
  std::uint16_t port_ = 0;
  State state_ = State::kBackoff;
  Socket sock_;
  FrameDecoder decoder_;
  Outbox outbox_;
  bool close_after_flush_ = false;
  bool goodbye_ = false;
  index_t attempt_ = 0;
  std::uint64_t next_connect_ms_ = 0;
  std::uint64_t last_activity_ms_ = 0;
  std::uint64_t next_heartbeat_ms_ = 0;
  std::optional<std::uint64_t> retry_hint_ms_;
  bool session_ = false;             // a welcome/resume-ack has been seen
  std::uint64_t last_round_ = 0;     // latest round id the server reported
  std::optional<CachedUpdate> cache_;
  std::uint64_t completed_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t bounced_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t backoff_total_ = 0;
  bool replied_this_conn_ = false;
};

}  // namespace oasis::net
