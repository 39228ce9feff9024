// oasis_convnet: fl_training's default federation driven by fl::Simulation.
//
// 24×24 synthetic ImageNet stand-in (10 classes), MiniConvNet width 8,
// 8 clients, 4 per round, B=16, lr 0.15. Every client runs OASIS MR+SH
// (the policy shears the original and its three rotations, so D' = 8·B =
// 128 examples) and the attack::make_model_auditor gate. A federation
// trains until global test accuracy first reaches 40%.
#include "attack/audit.h"
#include "bench.h"
#include "core/oasis.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "nn/models.h"

namespace roundbench {

using namespace oasis;

namespace {

constexpr index_t kClients = 8;
constexpr index_t kPerRound = 4;
constexpr index_t kBatch = 16;
constexpr double kLearningRate = 0.15;
constexpr double kTargetAccuracy = 0.40;
constexpr index_t kMaxRounds = 100;

FederationSeeds seeds(std::uint64_t fed_seed) {
  return federation_seeds(fed_seed, data::synth_imagenet_config().seed);
}

// fl_training's dataset, with a larger held-out split (generated after each
// class's training examples, so the training data is unchanged) to make the
// 40% crossing less sensitive to evaluation noise.
data::SynthConfig synth_config(std::uint64_t fed_seed) {
  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.height = cfg.width = 24;
  cfg.train_per_class = 24;
  cfg.test_per_class = 50;
  cfg.seed = seeds(fed_seed).data;
  return cfg;
}

fl::ModelFactory model_factory(std::uint64_t fed_seed) {
  const std::uint64_t init = seeds(fed_seed).init;
  return [init] {
    common::Rng rng(init);
    return nn::make_mini_convnet(nn::ImageSpec{3, 24, 24}, 10, rng, 8);
  };
}

fl::PreprocessorPtr oasis_mr_sh() {
  return core::make_preprocessor({augment::TransformKind::kMajorRotation,
                                  augment::TransformKind::kShear});
}

std::unique_ptr<fl::Client> make_client(index_t id, data::InMemoryDataset shard,
                                        const fl::ModelFactory& factory,
                                        fl::PreprocessorPtr pre,
                                        fl::ModelAuditor auditor,
                                        std::uint64_t fed_seed) {
  auto client = std::make_unique<fl::Client>(
      id, std::move(shard), factory, kBatch, std::move(pre),
      common::Rng(seeds(fed_seed).client + id));
  client->set_model_auditor(std::move(auditor));
  return client;
}

class OasisConvnet : public Workload {
 public:
  FederationResult run_federation(std::uint64_t fed_seed,
                                  const RunContext& ctx) override {
    FederationResult res;
    const auto t0 = Clock::now();
    const data::SynthDataset dataset = data::generate(synth_config(fed_seed));
    res.generate_s = ms_since(t0) / 1e3;
    auto shards = dataset.train.shard(kClients);
    const fl::ModelFactory factory = model_factory(fed_seed);
    const fl::PreprocessorPtr pre =
        traced_preprocessor(oasis_mr_sh(), ctx.probes);
    const fl::ModelAuditor auditor =
        traced_auditor(attack::make_model_auditor(), ctx.probes);
    std::vector<std::unique_ptr<fl::Client>> clients;
    for (index_t i = 0; i < kClients; ++i) {
      const Timed t(ctx.probes, "fl.make_client_ms");
      clients.push_back(
          make_client(i, shards[i], factory, pre, auditor, fed_seed));
    }
    auto server = std::make_unique<fl::Server>(factory(), kLearningRate);
    fl::Server& core = *server;
    fl::Simulation sim(std::move(server), std::move(clients),
                       fl::SimulationConfig{kPerRound,
                                            seeds(fed_seed).selection});
    res.setup_s = ms_since(t0) / 1e3;

    const index_t d_prime =
        samples_per_client_round(*oasis_mr_sh(), shards[0], kBatch);
    const std::uint64_t trained0 = counter_value("fl.clients_trained");
    const std::uint64_t refused0 = counter_value("fl.audit.refused");
    const std::uint64_t rejected0 = counter_value("fl.validate.rejected");
    const std::uint64_t lost0 = counter_value("fl.clients_lost");
    EngineSpans spans(ctx.probes);
    double to_target_ms = 0.0;
    bool reached = false;
    for (index_t r = 1;; ++r) {
      spans.begin();
      const auto tr = Clock::now();
      sim.run_round();
      const double ms = ms_since(tr);
      spans.end();
      res.round_ms.push_back(ms);
      res.attempted += kPerRound;
      if (r == kGateRounds) res.gate_crc = model_crc(core.global_model());
      if (ctx.fixed_rounds > 0) {
        if (r >= ctx.fixed_rounds) break;
        continue;
      }
      if (!reached) {
        to_target_ms += ms;
        if (metrics::accuracy(core.global_model(), dataset.test) >=
            kTargetAccuracy) {
          reached = true;
          res.time_to_target_s = to_target_ms / 1e3;
        }
      }
      if (reached && r >= kGateRounds) break;
      if (r >= kMaxRounds) {
        res.violations.push_back(
            "oasis_convnet: accuracy target not reached in " +
            std::to_string(kMaxRounds) + " rounds");
        break;
      }
    }
    res.samples = static_cast<double>(
        (counter_value("fl.clients_trained") - trained0) * d_prime);
    res.failed = (counter_value("fl.audit.refused") - refused0) +
                 (counter_value("fl.validate.rejected") - rejected0) +
                 (counter_value("fl.clients_lost") - lost0);
    return res;
  }

  ReplaySpec replay_spec(std::uint64_t fed_seed, Probes& /*probes*/) override {
    const data::SynthDataset dataset = data::generate(synth_config(fed_seed));
    auto shards = dataset.train.shard(kClients);
    ReplaySpec spec;
    spec.factory = model_factory(fed_seed);
    spec.learning_rate = kLearningRate;
    spec.cohort_size = kPerRound;
    spec.batch_size = kBatch;
    spec.preprocessor = oasis_mr_sh();
    spec.auditor = attack::make_model_auditor();
    for (index_t i = 0; i < kClients; ++i) {
      ReplayClient rc;
      rc.client = make_client(i, shards[i], spec.factory, spec.preprocessor,
                              spec.auditor, fed_seed);
      spec.clients.push_back(std::move(rc));
    }
    return spec;
  }
};

}  // namespace

std::unique_ptr<Workload> make_oasis_convnet(const Options& /*opts*/) {
  return std::make_unique<OasisConvnet>();
}

}  // namespace roundbench
