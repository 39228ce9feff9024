// Round benchmark: shared options, measurement helpers, and the interface
// each closed-loop FL workload implements.
//
// A workload runs *federations*: each one is set up from a seed, then trains
// a fixed number of committed rounds, or until its accuracy target (the
// workload's reference federation). main.cpp repeats federations until the
// time budget is spent and turns the results into the end-to-end metrics; a
// traced run adds bench-side spans (Probes) around the public calls the
// workload makes into each layer, and a layer-by-layer replay of sampled
// client rounds (replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fl/client.h"
#include "fl/defense.h"
#include "obs/obs.h"

namespace roundbench {

using oasis::index_t;
using Clock = std::chrono::steady_clock;

/// Rounds after which every federation's global-model CRC32C is recorded
/// for the determinism gate (threads-N untraced vs 1-thread traced).
inline constexpr index_t kGateRounds = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny scale (smoke test): same code paths, a fraction of the work.
  bool smoke = false;
  index_t nproc = 1;
};

double ms_since(Clock::time_point t0);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// CRC32C of the model's serialized state (parameters + buffers).
std::uint32_t model_crc(oasis::nn::Module& model);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// splitmix64 — derives independent sub-seeds from the benchmark seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Federation seed of each workload's reference federation: fl_training's
/// fixed seeds, so its rounds-to-target is the same on every run and
/// time_to_target_s moves only with round time. Every other federation of a
/// run is derived from the benchmark seed.
inline constexpr std::uint64_t kReferenceFederation = 0;

/// The seeds one federation is built from.
struct FederationSeeds {
  std::uint64_t data = 0;       // dataset / population
  std::uint64_t init = 0;       // global-model initialization
  std::uint64_t selection = 0;  // cohort selection
  std::uint64_t client = 0;     // client i's rng stream is client + i
};

/// kReferenceFederation → fl_training's constants (data seed as given, model
/// init 7, selection 3, client streams 1000 + i); any other federation seed
/// → four derived seeds.
FederationSeeds federation_seeds(std::uint64_t fed_seed,
                                 std::uint64_t reference_data_seed);

/// Combined value of an obs counter.
std::uint64_t counter_value(const std::string& name);

/// Inclusive milliseconds and count of one obs span path.
struct SpanTotal {
  double ms = 0.0;
  std::uint64_t count = 0;
};

/// Bench-side span store: named accumulators of call durations (ms) and of
/// plain values (sizes, counts), kept in memory. Thread-safe, so socket
/// client threads and pool workers can record into one store.
class Probes {
 public:
  void add(const std::string& name, double value);
  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double median(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

/// Times the enclosing scope into `probes` under `name`; a null store makes
/// it a no-op, so untraced runs pay nothing.
class Timed {
 public:
  Timed(Probes* probes, std::string name);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Probes* probes_;
  std::string name_;
  Clock::time_point start_;
};

/// Folds the engines' own obs spans (fl.round, its dispatch and aggregate
/// children, fl.client_round) into `probes` as engine.* values, one window
/// per round: a checkpoint restore resets span timings, so totals taken
/// across a restore would be wrong. A null store makes it a no-op.
class EngineSpans {
 public:
  explicit EngineSpans(Probes* probes) : probes_(probes) {}
  void begin();
  void end();

 private:
  Probes* probes_;
  std::map<std::string, SpanTotal> start_;
};

/// Wraps a preprocessor and records each process() call's duration and
/// output size (augment.process_ms / augment.samples_out).
oasis::fl::PreprocessorPtr traced_preprocessor(oasis::fl::PreprocessorPtr inner,
                                               Probes* probes);

/// Wraps an auditor and records each call's duration and refusals
/// (attack.audit_ms / attack.audit_refused). An empty auditor stays empty.
oasis::fl::ModelAuditor traced_auditor(oasis::fl::ModelAuditor inner,
                                       Probes* probes);

/// Output size of one preprocessor call on a batch of `batch_size` drawn
/// from `data` (D' per client round).
index_t samples_per_client_round(const oasis::fl::BatchPreprocessor& pre,
                                 const oasis::data::InMemoryDataset& data,
                                 index_t batch_size);

struct RunContext {
  /// Non-null = traced run: wrappers and bench spans record here.
  Probes* probes = nullptr;
  /// 0 = train until the accuracy target; otherwise exactly this many rounds
  /// with no accuracy checks.
  index_t fixed_rounds = 0;
};

/// What one federation measured and checked.
struct FederationResult {
  double setup_s = 0.0;
  double generate_s = 0.0;       // data/population generation part of setup
  std::vector<double> round_ms;  // committed rounds, dispatch → commit
  double samples = 0.0;          // examples trained (D'), all rounds
  double time_to_target_s = 0.0;
  std::uint32_t gate_crc = 0;    // model CRC32C after kGateRounds rounds
  std::uint64_t attempted = 0;   // updates dispatched
  std::uint64_t failed = 0;      // refused + rejected + lost + aborted
  std::vector<std::string> violations;
};

/// One sampled client round for the layer-by-layer replay: the real client
/// (whose handle_round gives the reference upload) and how its rng stream
/// is derived at the top of the round.
struct ReplayClient {
  std::unique_ptr<oasis::fl::Client> client;
  /// Set for round-keyed clients (virtual populations): the stream is
  /// fl::client_round_stream(seed, round, id); otherwise the client's live
  /// rng state is used.
  bool round_keyed = false;
  std::uint64_t round_key_seed = 0;
};

/// Everything the replay needs to re-run client rounds call by call.
struct ReplaySpec {
  oasis::fl::ModelFactory factory;
  double learning_rate = 0.15;
  index_t cohort_size = 1;
  index_t batch_size = 1;
  oasis::fl::PreprocessorPtr preprocessor;
  oasis::fl::ModelAuditor auditor;
  oasis::fl::DefenseStackPtr defense;  // may be null
  std::vector<ReplayClient> clients;
};

/// Replays round 0 for every client in `spec`, one layer at a time, timing
/// each public call into `probes` (names in replay.cpp). Records a violation
/// when the replayed upload differs from Client::handle_round's bytes or
/// the server screens it out.
void replay_round(ReplaySpec spec, Probes& probes,
                  std::vector<std::string>& violations);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Sets up federation `fed_seed`, trains it, checks its outputs.
  virtual FederationResult run_federation(std::uint64_t fed_seed,
                                          const RunContext& ctx) = 0;
  /// Builds the replay of round 0 of federation `fed_seed`; client
  /// construction the run itself does not time is timed into `probes`.
  virtual ReplaySpec replay_spec(std::uint64_t fed_seed, Probes& probes) = 0;
  /// Runtime (pool) threads the workload runs with at `nproc` cores.
  [[nodiscard]] virtual index_t runtime_threads(index_t nproc) const {
    return nproc;
  }
};

std::unique_ptr<Workload> make_oasis_convnet(const Options& opts);
std::unique_ptr<Workload> make_shard_stream(const Options& opts);
std::unique_ptr<Workload> make_socket_mlp(const Options& opts);

}  // namespace roundbench
