// shard_stream: fl::ShardedSimulation over a 200 000-client
// fl::VirtualPopulation, configured like `fl_training --population`.
//
// Linear model on 3×12×12, 8 examples per client, B=4, hash-threshold
// sampler, cohort 2048, shard 256, defense stack clip:10, lr 0.15. Every
// round boundary takes an in-memory encode_checkpoint → restore_checkpoint
// round trip, which is part of the round's time. A federation trains until
// held-out accuracy first reaches 50%.
#include "bench.h"
#include "data/synthetic.h"
#include "fl/shard.h"
#include "metrics/accuracy.h"
#include "nn/model_io.h"
#include "nn/models.h"

namespace roundbench {

using namespace oasis;

namespace {

constexpr index_t kExamplesPerClient = 8;
constexpr index_t kBatch = 4;
constexpr index_t kImage = 12;
constexpr index_t kClasses = 10;
constexpr index_t kTestPerClass = 50;
constexpr double kLearningRate = 0.15;
constexpr double kTargetAccuracy = 0.50;
constexpr index_t kMaxRounds = 60;
constexpr index_t kReplayClients = 32;

// fl_training --population's population seed.
constexpr std::uint64_t kReferencePopulationSeed = 11;

FederationSeeds seeds(std::uint64_t fed_seed) {
  return federation_seeds(fed_seed, kReferencePopulationSeed);
}

struct Scale {
  index_t population;
  index_t cohort;
  index_t shard;
};

fl::ModelFactory model_factory(std::uint64_t fed_seed) {
  const std::uint64_t init = seeds(fed_seed).init;
  return [init] {
    common::Rng rng(init);  // fresh per call: the factory must be pure
    return nn::make_linear_model(nn::ImageSpec{3, kImage, kImage}, kClasses,
                                 rng);
  };
}

fl::VirtualPopulationConfig population_config(std::uint64_t fed_seed,
                                              const Scale& scale,
                                              fl::PreprocessorPtr pre) {
  fl::VirtualPopulationConfig cfg;
  cfg.num_clients = scale.population;
  cfg.seed = seeds(fed_seed).data;
  cfg.num_classes = kClasses;
  cfg.height = cfg.width = kImage;
  cfg.examples_per_client = kExamplesPerClient;
  cfg.batch_size = kBatch;
  cfg.factory = model_factory(fed_seed);
  cfg.preprocessor = std::move(pre);
  return cfg;
}

// Held-out examples drawn from the population's class signatures (the
// population's synthetic config is (classes, extent, population seed)).
data::InMemoryDataset test_set(std::uint64_t fed_seed) {
  data::SynthConfig synth;
  synth.num_classes = kClasses;
  synth.height = synth.width = kImage;
  synth.seed = seeds(fed_seed).data;
  common::Rng rng(seeds(fed_seed).client);
  data::InMemoryDataset test(kClasses, tensor::Shape{3, kImage, kImage});
  for (index_t k = 0; k < kTestPerClass; ++k) {
    for (index_t label = 0; label < kClasses; ++label) {
      test.push_back(data::generate_example(synth, label, rng));
    }
  }
  return test;
}

class ShardStream : public Workload {
 public:
  explicit ShardStream(const Scale& scale) : scale_(scale) {}

  FederationResult run_federation(std::uint64_t fed_seed,
                                  const RunContext& ctx) override {
    FederationResult res;
    const auto t0 = Clock::now();
    const data::InMemoryDataset test = test_set(fed_seed);
    fl::VirtualPopulation population(population_config(
        fed_seed, scale_, traced_preprocessor(nullptr, ctx.probes)));
    res.generate_s = ms_since(t0) / 1e3;
    fl::ShardedConfig shard_cfg;
    shard_cfg.cohort_size = scale_.cohort;
    shard_cfg.shard_size = scale_.shard;
    shard_cfg.seed = seeds(fed_seed).selection;
    shard_cfg.sampler = fl::CohortSampler::kHashThreshold;
    auto server = std::make_unique<fl::Server>(model_factory(fed_seed)(),
                                               kLearningRate);
    fl::Server& core = *server;
    fl::ShardedSimulation engine(std::move(server), std::move(population),
                                 shard_cfg);
    engine.set_defense_stack(fl::parse_defense_stack("clip:10"));
    res.setup_s = ms_since(t0) / 1e3;

    const std::uint64_t trained0 = counter_value("fl.clients_trained");
    const std::uint64_t rejected0 = counter_value("fl.validate.rejected");
    const std::uint64_t lost0 = counter_value("fl.clients_lost");
    EngineSpans spans(ctx.probes);
    double to_target_ms = 0.0;
    bool reached = false;
    for (index_t r = 1;; ++r) {
      spans.begin();
      const auto tr = Clock::now();
      res.attempted += engine.run_round();
      double ms = ms_since(tr);
      spans.end();
      // The round-trip check reads the model outside the timed spans.
      const tensor::ByteBuffer before =
          nn::serialize_state(core.global_model());
      const auto tc = Clock::now();
      tensor::ByteBuffer snapshot;
      {
        const Timed t(ctx.probes, "ckpt.encode_ms");
        snapshot = engine.encode_checkpoint();
      }
      {
        const Timed t(ctx.probes, "ckpt.restore_ms");
        engine.restore_checkpoint(snapshot);
      }
      ms += ms_since(tc);
      if (ctx.probes != nullptr) {
        ctx.probes->add("ckpt.bytes", static_cast<double>(snapshot.size()));
      }
      if (nn::serialize_state(core.global_model()) != before) {
        res.violations.push_back("shard_stream: checkpoint round trip changed "
                                 "the model bytes in round " +
                                 std::to_string(r));
      }
      res.round_ms.push_back(ms);
      if (r == kGateRounds) res.gate_crc = model_crc(core.global_model());
      if (ctx.fixed_rounds > 0) {
        if (r >= ctx.fixed_rounds) break;
        continue;
      }
      if (!reached) {
        to_target_ms += ms;
        if (metrics::accuracy(core.global_model(), test) >= kTargetAccuracy) {
          reached = true;
          res.time_to_target_s = to_target_ms / 1e3;
        }
      }
      if (reached && r >= kGateRounds) break;
      if (r >= kMaxRounds) {
        res.violations.push_back(
            "shard_stream: accuracy target not reached in " +
            std::to_string(kMaxRounds) + " rounds");
        break;
      }
    }
    // Identity preprocessing: every trained client contributes B examples.
    res.samples = static_cast<double>(
        (counter_value("fl.clients_trained") - trained0) * kBatch);
    res.failed = (counter_value("fl.validate.rejected") - rejected0) +
                 (counter_value("fl.clients_lost") - lost0);
    return res;
  }

  ReplaySpec replay_spec(std::uint64_t fed_seed, Probes& probes) override {
    const fl::VirtualPopulation population(
        population_config(fed_seed, scale_, nullptr));
    ReplaySpec spec;
    spec.factory = model_factory(fed_seed);
    spec.learning_rate = kLearningRate;
    spec.cohort_size = scale_.cohort;
    spec.batch_size = kBatch;
    spec.preprocessor = population.config().preprocessor;
    spec.defense = fl::parse_defense_stack("clip:10");
    for (index_t k = 0; k < kReplayClients; ++k) {
      const std::uint64_t id =
          mix_seed(seeds(fed_seed).client, k) % scale_.population;
      ReplayClient rc;
      {
        const Timed t(&probes, "fl.make_client_ms");
        rc.client = population.make_client(id);
      }
      rc.round_keyed = true;
      rc.round_key_seed = population.config().seed;
      spec.clients.push_back(std::move(rc));
    }
    return spec;
  }

 private:
  Scale scale_;
};

}  // namespace

std::unique_ptr<Workload> make_shard_stream(const Options& opts) {
  return std::make_unique<ShardStream>(
      opts.smoke ? Scale{20'000, 256, 64} : Scale{200'000, 2048, 256});
}

}  // namespace roundbench
