// net::FlServer — the socket-facing FL coordinator.
//
// A poll(2)-driven, non-blocking TCP front end over an existing fl::Server:
// the network layer owns connections, framing, admission, and deadlines;
// every protocol decision that touches the model (validation, aggregation,
// SGD, quorum abort) goes through the same fl::RoundCore the in-process
// engines use, so the validation pipeline screens every byte arriving over
// TCP exactly as it screens in-process updates, and the server's aggregator
// applies. A buffering aggregator (median, trimmed mean) cannot be
// checkpointed mid-round, so the constructor refuses it with ConfigError.
//
// Connection lifecycle:
//
//   accept → kHandshake (await hello/resume) → kParked (awaiting a round)
//          → kInRound (model dispatched, awaiting update) → kReplied
//          → back to kParked after cutover … → kClosing (drain outbox)
//
// Backpressure and abuse bounds:
//   * hellos arriving while a round is open, or when the parked pool is
//     full (2 × cohort_size), are answered with a retry-after frame and closed — the client
//     reconnects after the hinted backoff and joins a later round;
//   * every connection has a per-step read budget (a slow-drip peer cannot
//     monopolize the loop) and a no-progress idle deadline (slowloris);
//   * frame length prefixes are validated against a hard budget before any
//     allocation (see frame.h).
//
// Round cutover is graceful: once the cohort is dispatched, the server
// accepts in-flight updates until everyone replied or the round deadline
// expires, then commits the streamed aggregate and notifies every surviving
// participant before admitting the next cohort.
//
// Survivability (DESIGN.md §5j): each arriving update is held, unscreened,
// with its cohort member, and the fold frontier offers it to the streaming
// RoundCore fold in the deterministic round order, as the in-process loop
// does; with a ckpt::CheckpointManager configured, the fold frontier is
// checkpointed at round boundaries plus every K accepts, and resume_from()
// reinstates the open round's cohort, fold frontier, accumulator partials
// and the screen's claimed ids, after which the server re-binds the same
// port and reconnecting clients resolve their in-flight updates via the
// kResume handshake. A SIGKILL therefore loses at most the accepts since
// the last snapshot, and those are re-requested — never double-counted —
// on resume.
//
// Determinism: with `selection` seeded, the aggregation order replays
// fl::Simulation's cohort permutation (common::Rng::sample_without_
// replacement over the sorted cohort), so a loopback federation with the
// same seeds produces a final model byte-identical to the in-process run —
// the serving path inherits the repo-wide bit-identity contract, and a
// killed-and-restarted server inherits it too.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "common/rng.h"
#include "fl/round_core.h"
#include "fl/server.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/obs.h"

namespace oasis::net {

/// Millisecond clock used for all server deadlines. Defaults to
/// std::chrono::steady_clock; deterministic tests inject a counter they
/// advance by hand (the VirtualClock idiom of the round engine).
using TimeSource = std::function<std::uint64_t()>;

/// The default wall clock (steady, ms).
std::uint64_t steady_now_ms();

struct FlServerConfig {
  /// Clients admitted per round (the round admission bound M).
  index_t cohort_size = 4;
  /// Committed rounds to serve before draining and closing.
  std::uint64_t rounds = 1;
  /// Quorum over the cohort (fl::RoundCore::quorum_needed). An aborted round
  /// discards the streamed aggregate (the model was never touched) and does
  /// not count as served.
  real quorum_fraction = 0.0;
  /// When set, replay fl::Simulation's per-round cohort permutation from
  /// this seed (requires every participant id in [0, cohort_size), i.e. the
  /// full-population cohort the equivalence contract is defined over).
  std::optional<std::uint64_t> selection_seed;
  /// Update-collection deadline after dispatch; members still silent at the
  /// deadline are stragglers and excluded from this round.
  std::uint64_t round_timeout_ms = 10'000;
  /// Per-connection no-progress deadline (slowloris defense; also bounds
  /// the handshake).
  std::uint64_t idle_timeout_ms = 10'000;
  /// Pause between cutover and the next admission, so reconnecting clients
  /// can rejoin before the cohort refills. 0 = admit immediately.
  std::uint64_t admission_window_ms = 0;
  /// Backoff hint carried by the retry-after frame.
  std::uint64_t retry_after_ms = 50;
  /// Interval between server-sent kHeartbeat frames to handshaked
  /// connections (keeps client idle deadlines from tripping during long
  /// aggregation stalls). 0 = no heartbeats.
  std::uint64_t heartbeat_ms = 0;
  /// Hard ceiling on one frame body (see FrameDecoder).
  std::size_t max_frame_bytes = kDefaultMaxBodyBytes;
  /// Max bytes drained from one connection per step (fairness bound).
  std::size_t read_budget_bytes = 256 * 1024;
  /// Accepted sockets beyond this are closed immediately.
  index_t max_connections = 64;
  /// When set, round state (model, fold frontier, accumulator partials,
  /// claimed ids) is checkpointed at every round boundary plus
  /// every `checkpoint_every_accepts` folded updates. The manager must
  /// outlive the server. A failing save degrades to in-memory operation
  /// (net.ckpt.degraded) instead of aborting the round.
  ckpt::CheckpointManager* checkpoint = nullptr;
  /// Mid-round snapshot cadence in folded accepts; 0 = boundaries only.
  /// A crash loses at most this many folded accepts of progress — they are
  /// re-requested from their senders via session resume, never recomputed
  /// into a different fold order.
  std::uint64_t checkpoint_every_accepts = 0;
};

class FlServer {
 public:
  /// Progress events the chaos harness arms its kill points on. Fired
  /// synchronously from inside the event loop; a production server never
  /// installs a hook.
  enum class Event : std::uint8_t {
    kUpdateAccepted,   // one accepted update folded into the accumulator
    kMidFrame,         // read pass left a partial frame buffered
    kCheckpointSaved,  // a snapshot reached disk
    kPreResultSend,    // round committed (+ checkpointed), results not yet sent
  };
  using EventHook = std::function<void(Event)>;

  /// `core` must outlive the FlServer. `now` defaults to the steady clock.
  /// Throws ConfigError when `core`'s aggregator buffers the cohort.
  FlServer(fl::Server& core, FlServerConfig config, TimeSource now = {});
  ~FlServer();

  FlServer(const FlServer&) = delete;
  FlServer& operator=(const FlServer&) = delete;

  /// Binds and listens (numeric IPv4 host; port 0 → ephemeral, see port()).
  /// With a checkpoint manager configured and no snapshot on disk yet, a
  /// generation-0 boundary snapshot is written so a crash at any later point
  /// always has something to restore.
  void listen(const std::string& host, std::uint16_t port);

  /// The bound port (resolves an ephemeral bind).
  [[nodiscard]] std::uint16_t port() const;

  /// Restores the newest valid snapshot from the configured checkpoint
  /// manager: model bytes, protocol round, served-round count, and — for a
  /// mid-round snapshot — the cohort order, fold frontier, accumulator
  /// partials, and the duplicate screen's claimed ids. Call before listen();
  /// reconnecting cohort members are re-dispatched the open round and
  /// already-folded members are told kAccepted instead of re-collected.
  /// Throws CheckpointError (kNoValidGeneration when the directory holds no
  /// loadable snapshot; kStateMismatch when the snapshot belongs to another
  /// engine or a differently configured federation), and ConfigError for a
  /// mid-round snapshot under a fl::MaliciousServer: finishing the round
  /// would re-run begin_round() and manipulate the restored model a second
  /// time. Nothing live changes before a throw. Returns the restored
  /// protocol round.
  std::uint64_t resume_from();

  /// One event-loop iteration: poll up to `timeout_ms`, pump socket IO,
  /// enforce deadlines, start/finish rounds. Returns false once the serving
  /// schedule is complete and every connection has drained.
  bool step(int timeout_ms);

  /// Blocks in step() until the schedule completes.
  void serve();

  /// True once all configured rounds committed and connections drained.
  [[nodiscard]] bool finished() const;

  /// Committed (non-aborted) rounds served so far.
  [[nodiscard]] std::uint64_t rounds_served() const { return served_; }

  /// Wall-clock (TimeSource) dispatch→cutover latency of every finished
  /// round attempt, in order — the load bench derives p50/p99 from this.
  [[nodiscard]] const std::vector<double>& round_latencies_ms() const {
    return latencies_ms_;
  }

  /// Live connections (tests).
  [[nodiscard]] index_t connection_count() const;

  /// True once a checkpoint save has failed and the server fell back to
  /// in-memory operation (the net.ckpt.degraded counter tracks attempts).
  [[nodiscard]] bool checkpoint_degraded() const { return ckpt_degraded_; }

  /// Installs the chaos harness's kill-point hook (tests only).
  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  fl::Server& core() { return core_; }

 private:
  struct Conn;

  void pump_listener();
  void pump_read(Conn& conn, std::uint64_t now);
  void pump_write(Conn& conn);
  void handle_frame(Conn& conn, Frame frame);
  /// The prelude both handshakes share: answers goodbye once serving is
  /// over, bounces an id live on another handshaked connection, and
  /// returns true when it answered.
  bool refuse_handshake(Conn& conn, std::uint64_t client_id);
  void handle_hello(Conn& conn, const Hello& hello);
  void handle_resume(Conn& conn, const Resume& resume);
  void handle_update(Conn& conn, tensor::ByteBuffer body);
  void enforce_deadlines(std::uint64_t now);
  void send_heartbeats(std::uint64_t now);
  void maybe_start_round(std::uint64_t now);
  void maybe_finish_round(std::uint64_t now);
  void cutover(std::uint64_t now);
  /// Drops the collection state of a closed round (the fold closes itself).
  void clear_round();
  void send_frame(Conn& conn, OutFrame frame);
  /// send_frame, then close the connection once the outbox has flushed.
  void send_and_close(Conn& conn, OutFrame frame);
  /// core_.begin_round(), once no queued frame borrows the bytes it replaces.
  void begin_dispatch();
  /// The model frame for `client_id`, its payload borrowed from the core.
  OutFrame dispatch_frame(std::uint64_t client_id);
  /// Turns a handshake away with the retry-after hint; `why` counts it.
  void bounce(Conn& conn, obs::Counter& why);
  void close_conn(Conn& conn, const char* why);
  void finish_serving();
  /// The parked pool holds at most 2 × cohort_size handshaked clients.
  [[nodiscard]] bool parked_full() const;

  // --- Durable fold (DESIGN.md §5j) ---------------------------------------
  /// One cohort member of the open round.
  struct Member {
    explicit Member(std::uint64_t id) : wire_id(id) {}
    std::uint64_t wire_id;
    bool delivered = false;  // sent an update this round, any verdict
    /// Updates not yet offered, in arrival order: they wait for the fold
    /// frontier to reach this member.
    std::vector<fl::ClientUpdateMessage> held;
  };
  /// The open round's member with this wire id, or nullptr.
  [[nodiscard]] Member* member(std::uint64_t wire_id);
  /// RoundCore::offer, counting a folded update toward the checkpoint
  /// cadence. Returns true when it folded.
  bool offer(const fl::ClientUpdateMessage& msg);
  /// Offers held updates while the member at the fold frontier has some,
  /// and moves the frontier past it once one folds. Offering strictly in
  /// round order (never arrival order) gives the screen and the sum the
  /// in-process sequence, and makes a mid-round snapshot's folded set a
  /// prefix of the round order.
  void fold_ready();
  /// Snapshot of the complete serving state (model, round, fold frontier,
  /// the RoundCore fold and screen, selection RNG) in the one schema every
  /// engine writes (DESIGN.md §5g).
  [[nodiscard]] tensor::ByteBuffer encode_checkpoint();
  void apply_snapshot(const ckpt::Snapshot& snap);
  [[nodiscard]] std::uint64_t checkpoint_generation() const;
  /// Attempts a durable save; a filesystem failure tallies
  /// net.ckpt.degraded and leaves the server running in-memory.
  void save_checkpoint();
  void fire_event(Event event);

  fl::Server& core_;
  FlServerConfig config_;
  TimeSource now_;
  Socket listener_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
  std::optional<common::Rng> selection_;
  bool round_open_ = false;
  std::uint64_t round_id_ = 0;             // protocol round being collected
  /// The cohort in fold order. The round completes when every member has
  /// delivered; a restore marks the folded prefix delivered, so a crash
  /// re-collects exactly the unfolded tail.
  std::vector<Member> members_;
  /// This round's dispatch payloads, one per distinct message (§5p).
  std::vector<std::shared_ptr<const tensor::ByteBuffer>> dispatch_payloads_;
  fl::RoundCore round_;                // screen + the durable streamed fold
  std::size_t fold_frontier_ = 0;      // members_ prefix already folded
  std::uint64_t accepts_since_ckpt_ = 0;
  bool ckpt_degraded_ = false;
  std::uint64_t round_deadline_ms_ = 0;
  std::uint64_t round_started_ms_ = 0;
  std::uint64_t next_admission_ms_ = 0;
  std::uint64_t next_heartbeat_ms_ = 0;
  std::uint64_t served_ = 0;
  bool goodbye_sent_ = false;
  std::vector<double> latencies_ms_;
  EventHook event_hook_;
};

}  // namespace oasis::net
