// socket_mlp: net::FlServer on loopback, stepped on the calling thread, with
// three net::FlClients on one thread each (cohort 3) and one runtime thread.
//
// make_mlp 3×32×32 → 256 → 10 (≈6.3 MB update frames), OASIS MR (D' = 4·B),
// B=8, lr 0.15, no faults, no checkpoint manager. Before each federation the
// same federation runs in-process through fl::Simulation (seeded like
// FlServerConfig::selection_seed), for the fixed round count or until
// held-out accuracy first reaches 35%. That fixes the socket run's round
// count, and the socket run's final model must equal the in-process one
// byte for byte.
#include <atomic>
#include <exception>
#include <map>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/oasis.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/models.h"

namespace roundbench {

using namespace oasis;

namespace {

constexpr index_t kClients = 3;
constexpr index_t kBatch = 8;
constexpr index_t kImage = 32;
constexpr double kLearningRate = 0.15;
constexpr double kTargetAccuracy = 0.35;
constexpr index_t kMaxRounds = 100;
// A federation that has not finished by then is stuck (a dead client
// thread, a lost frame): report it instead of hanging the run.
constexpr double kFederationDeadlineMs = 120'000.0;

FederationSeeds seeds(std::uint64_t fed_seed) {
  return federation_seeds(fed_seed, data::synth_imagenet_config().seed);
}

data::SynthConfig synth_config(std::uint64_t fed_seed) {
  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.height = cfg.width = kImage;
  cfg.train_per_class = 12;
  cfg.test_per_class = 50;
  cfg.seed = seeds(fed_seed).data;
  return cfg;
}

fl::ModelFactory model_factory(std::uint64_t fed_seed) {
  const std::uint64_t init = seeds(fed_seed).init;
  return [init] {
    common::Rng rng(init);
    return nn::make_mlp(nn::ImageSpec{3, kImage, kImage}, {256}, 10, rng);
  };
}

fl::PreprocessorPtr oasis_mr() {
  return core::make_preprocessor({augment::TransformKind::kMajorRotation});
}

std::vector<std::unique_ptr<fl::Client>> make_clients(
    const std::vector<data::InMemoryDataset>& shards,
    const fl::ModelFactory& factory, const fl::PreprocessorPtr& pre,
    std::uint64_t fed_seed, Probes* probes) {
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < kClients; ++i) {
    const Timed t(probes, "fl.make_client_ms");
    clients.push_back(std::make_unique<fl::Client>(
        i, shards[i], factory, kBatch, pre,
        common::Rng(seeds(fed_seed).client + i)));
  }
  return clients;
}

// The socket clients' threads, stopped and joined on every path out of a
// federation (exceptions included) before the clients they drive go away.
struct ClientThreads {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  ClientThreads() = default;
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;
  ~ClientThreads() { join(); }

  void join() {
    stop.store(true);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

struct Reference {
  index_t rounds = 0;         // rounds the socket run must serve
  index_t rounds_to_target = 0;
  std::uint32_t gate_crc = 0;
  std::uint32_t final_crc = 0;
};

// The same federation in-process: fl::Simulation over every client (cohort
// = population) with the server's selection seed.
Reference run_reference(const data::SynthDataset& dataset,
                        std::uint64_t fed_seed, index_t fixed_rounds,
                        std::vector<std::string>& violations) {
  const fl::ModelFactory factory = model_factory(fed_seed);
  auto server = std::make_unique<fl::Server>(factory(), kLearningRate);
  fl::Server& core = *server;
  fl::Simulation sim(
      std::move(server),
      make_clients(dataset.train.shard(kClients), factory, oasis_mr(), fed_seed,
                   nullptr),
      fl::SimulationConfig{0, seeds(fed_seed).selection});
  Reference ref;
  for (index_t r = 1;; ++r) {
    sim.run_round();
    if (r == kGateRounds) ref.gate_crc = model_crc(core.global_model());
    if (fixed_rounds > 0) {
      if (r >= fixed_rounds) break;
      continue;
    }
    if (ref.rounds_to_target == 0 &&
        metrics::accuracy(core.global_model(), dataset.test) >=
            kTargetAccuracy) {
      ref.rounds_to_target = r;
    }
    if (ref.rounds_to_target > 0 && r >= kGateRounds) break;
    if (r >= kMaxRounds) {
      violations.push_back("socket_mlp: accuracy target not reached in " +
                           std::to_string(kMaxRounds) + " rounds");
      break;
    }
  }
  ref.rounds = sim.server().round();
  ref.final_crc = model_crc(core.global_model());
  return ref;
}

class SocketMlp : public Workload {
 public:
  [[nodiscard]] index_t runtime_threads(index_t /*nproc*/) const override {
    return 1;
  }

  FederationResult run_federation(std::uint64_t fed_seed,
                                  const RunContext& ctx) override {
    FederationResult res;
    auto t0 = Clock::now();
    const data::SynthDataset dataset = data::generate(synth_config(fed_seed));
    res.generate_s = ms_since(t0) / 1e3;

    // Built outside the timed loop (and outside setup): the in-process run
    // that fixes the round count and the expected final model. It is
    // deterministic, so a federation that recurs in one process (the
    // reference federation) reuses it.
    const auto key = std::make_pair(fed_seed, ctx.fixed_rounds);
    auto cached = references_.find(key);
    if (cached == references_.end()) {
      cached = references_
                   .emplace(key, run_reference(dataset, fed_seed,
                                               ctx.fixed_rounds,
                                               res.violations))
                   .first;
    }
    const Reference& ref = cached->second;

    t0 = Clock::now();
    const fl::ModelFactory factory = model_factory(fed_seed);
    const auto shards = dataset.train.shard(kClients);
    const auto cores = make_clients(
        shards, factory, traced_preprocessor(oasis_mr(), ctx.probes), fed_seed,
        ctx.probes);
    fl::Server core(factory(), kLearningRate);
    net::FlServerConfig server_cfg;
    server_cfg.cohort_size = kClients;
    server_cfg.rounds = ref.rounds;
    server_cfg.selection_seed = seeds(fed_seed).selection;
    server_cfg.round_timeout_ms = 60'000;
    server_cfg.idle_timeout_ms = 60'000;
    net::FlServer server(core, server_cfg);
    server.listen("127.0.0.1", 0);

    const std::uint64_t started0 = counter_value("net.round.started");
    const std::uint64_t committed0 = counter_value("net.round.committed");
    const std::uint64_t accepted0 = counter_value("fl.validate.accepted");
    const std::uint64_t rejected0 = counter_value("fl.validate.rejected");
    const std::uint64_t refused0 = counter_value("net.client.rounds_refused");
    const std::uint64_t stragglers0 = counter_value("net.round.stragglers");
    const std::uint64_t aborted0 = counter_value("net.round.aborted");
    const std::uint64_t bytes0 =
        counter_value("net.bytes.received") + counter_value("net.bytes.sent");
    const std::uint64_t frames_in0 = counter_value("net.frames.received");
    const std::uint64_t frames0 = frames_in0 + counter_value("net.frames.sent");

    std::vector<std::exception_ptr> errors(kClients);
    ClientThreads clients;
    const std::uint16_t port = server.port();
    for (index_t i = 0; i < kClients; ++i) {
      clients.threads.emplace_back([&, i] {
        try {
          net::FlClientConfig client_cfg;
          client_cfg.client_id = i;
          client_cfg.io_timeout_ms = 60'000;
          net::FlClient client(*cores[i], client_cfg);
          client.connect("127.0.0.1", port);
          std::uint64_t sent = 0;
          while (!clients.stop.load(std::memory_order_relaxed)) {
            const auto ts = Clock::now();
            const bool more = client.step(5);
            if (client.updates_sent() != sent) {
              // The step that trained on a dispatched model and queued the
              // update: the socket client's whole round of local work.
              sent = client.updates_sent();
              if (ctx.probes != nullptr) {
                const double ms = ms_since(ts);
                ctx.probes->add("net.client_step_ms", ms);
                ctx.probes->add("engine.client_round_ms", ms);
                ctx.probes->add("engine.client_round_count", 1.0);
              }
            }
            if (!more) break;
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }

    // Closed loop on this thread: a round is committed when the server's
    // commit counter moves; its time runs from the previous commit (or the
    // first dispatch) to this one.
    std::uint64_t committed = 0;
    bool dispatched = false;
    Clock::time_point last_commit;
    const auto loop_start = Clock::now();
    for (;;) {
      const auto step_start = Clock::now();
      const bool more = server.step(5);
      const auto now = Clock::now();
      if (!dispatched && counter_value("net.round.started") > started0) {
        dispatched = true;
        res.setup_s += std::chrono::duration<double>(step_start - t0).count();
        last_commit = step_start;
      }
      const std::uint64_t c = counter_value("net.round.committed") - committed0;
      if (c > committed) {
        committed = c;
        res.round_ms.push_back(
            std::chrono::duration<double, std::milli>(now - last_commit)
                .count());
        last_commit = now;
        if (committed == kGateRounds) {
          res.gate_crc = model_crc(core.global_model());
        }
      }
      if (!more) break;
      if (ms_since(loop_start) > kFederationDeadlineMs) {
        res.violations.push_back("socket_mlp: federation did not finish");
        break;
      }
    }
    clients.join();
    res.setup_s += res.generate_s;
    for (const auto& e : errors) {
      if (!e) continue;
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        res.violations.push_back(std::string("socket_mlp: client failed: ") +
                                 ex.what());
      } catch (...) {
        res.violations.push_back("socket_mlp: client failed");
      }
    }

    const index_t d_prime =
        samples_per_client_round(*oasis_mr(), shards[0], kBatch);
    res.attempted = committed * kClients;
    const std::uint64_t accepted =
        counter_value("fl.validate.accepted") - accepted0;
    res.samples = static_cast<double>(accepted * d_prime);
    res.failed = (counter_value("net.client.rounds_refused") - refused0) +
                 (counter_value("fl.validate.rejected") - rejected0) +
                 (counter_value("net.round.stragglers") - stragglers0) +
                 (counter_value("net.round.aborted") - aborted0) * kClients;
    if (committed != ref.rounds) {
      res.violations.push_back("socket_mlp: served " +
                               std::to_string(committed) + " of " +
                               std::to_string(ref.rounds) + " rounds");
    }
    if (model_crc(core.global_model()) != ref.final_crc) {
      res.violations.push_back(
          "socket_mlp: final model differs from the in-process fl::Simulation");
    }
    if (ctx.fixed_rounds == 0) {
      double to_target_ms = 0.0;
      for (index_t r = 0; r < ref.rounds_to_target && r < res.round_ms.size();
           ++r) {
        to_target_ms += res.round_ms[r];
      }
      res.time_to_target_s = to_target_ms / 1e3;
    }
    if (ctx.probes != nullptr && committed > 0) {
      const double rounds = static_cast<double>(committed);
      const std::uint64_t bytes =
          counter_value("net.bytes.received") + counter_value("net.bytes.sent");
      const std::uint64_t frames_in = counter_value("net.frames.received");
      const std::uint64_t frames = frames_in + counter_value("net.frames.sent");
      ctx.probes->add("net.bytes_per_round",
                      static_cast<double>(bytes - bytes0) / rounds);
      ctx.probes->add("net.frames_per_round",
                      static_cast<double>(frames - frames0) / rounds);
      ctx.probes->add("net.useful_frame_ratio",
                      static_cast<double>(accepted) /
                          static_cast<double>(frames_in - frames_in0));
      for (const double ms : server.round_latencies_ms()) {
        ctx.probes->add("net.round_latency_ms", ms);
      }
    }
    return res;
  }

  ReplaySpec replay_spec(std::uint64_t fed_seed, Probes& /*probes*/) override {
    const data::SynthDataset dataset = data::generate(synth_config(fed_seed));
    ReplaySpec spec;
    spec.factory = model_factory(fed_seed);
    spec.learning_rate = kLearningRate;
    spec.cohort_size = kClients;
    spec.batch_size = kBatch;
    spec.preprocessor = oasis_mr();
    for (auto& client : make_clients(dataset.train.shard(kClients),
                                     spec.factory, spec.preprocessor, fed_seed,
                                     nullptr)) {
      ReplayClient rc;
      rc.client = std::move(client);
      spec.clients.push_back(std::move(rc));
    }
    return spec;
  }

 private:
  std::map<std::pair<std::uint64_t, index_t>, Reference> references_;
};

}  // namespace

std::unique_ptr<Workload> make_socket_mlp(const Options& /*opts*/) {
  return std::make_unique<SocketMlp>();
}

}  // namespace roundbench
