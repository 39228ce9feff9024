// Cross-engine proofs for the one round fold (fl::RoundCore).
//
// fl::Simulation, fl::ShardedSimulation and net::FlServer differ only in
// where updates come from; the server half of a round (screen, aggregate,
// quorum, commit) is the server's own. So for every STREAMING aggregator the
// three engines must commit byte-identical global models, at any shard size
// and thread count and over a real loopback socket. The engines that
// checkpoint a streaming fold (sharded, socket) must refuse the BUFFERING
// aggregators at construction instead of running something else.
//
// RoundCoreFold pins the FedAvg fold's arithmetic and order against a
// test-local chain, bit for bit.
//
// CkptPin pins a hash of every checkpoint section (the obs registry
// excluded: its counters depend on what else ran in the process) at a
// resting fl::Simulation snapshot, a resting fl::ShardedSimulation snapshot,
// a mid-round sharded snapshot and a mid-round net::FlServer snapshot. The
// three in-process "model" hashes were recorded before the round fold moved
// behind fl::RoundCore and held through the move to the one snapshot schema
// (DESIGN.md §5g), which re-pinned only the other sections: the model bytes
// never moved. The pinned federation trains on images that are exact
// functions of their labels, so the same constants hold in the native
// Release build and in the sanitizer builds.
//
// CkptRefusal restores one engine's snapshot into another: the engine tag
// that opens every "meta" section refuses it before anything live changes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/container.h"
#include "ckpt/io.h"
#include "ckpt/manager.h"
#include "common/error.h"
#include "fl/fault.h"
#include "fl/population.h"
#include "fl/round_core.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "tensor/serialize.h"
#include "test_util.h"

namespace oasis::fl {
namespace {

constexpr std::uint64_t kPopulationSeed = 0xC0DE;
constexpr std::uint64_t kSelectionSeed = 29;
constexpr index_t kPopulation = 6;
constexpr index_t kRounds = 2;

VirtualPopulationConfig test_population() {
  VirtualPopulationConfig cfg;
  cfg.num_clients = kPopulation;
  cfg.seed = kPopulationSeed;
  cfg.num_classes = 4;
  cfg.height = cfg.width = 8;
  cfg.examples_per_client = 6;
  cfg.batch_size = 3;
  cfg.factory = [] {
    common::Rng init(kPopulationSeed ^ 0x5EED);
    return nn::make_mlp({3, 8, 8}, {8}, 4, init);
  };
  return cfg;
}

std::unique_ptr<Server> test_server(const AggregatorConfig& aggregator) {
  auto server = std::make_unique<Server>(test_population().factory(),
                                         /*learning_rate=*/0.1);
  server->set_aggregator(aggregator);
  return server;
}

ShardedConfig sharded_config(index_t shard_size) {
  ShardedConfig cfg;
  cfg.shard_size = shard_size;  // cohort_size 0: the whole population
  cfg.seed = kSelectionSeed;
  return cfg;
}

tensor::ByteBuffer run_simulation(const AggregatorConfig& aggregator) {
  runtime::set_num_threads(1);
  Simulation sim(test_server(aggregator),
                 VirtualPopulation(test_population()).materialize(),
                 SimulationConfig{/*clients_per_round=*/0, kSelectionSeed});
  sim.run(kRounds);
  return nn::serialize_state(sim.server().global_model());
}

tensor::ByteBuffer run_sharded(const AggregatorConfig& aggregator,
                               index_t shard_size, index_t threads) {
  runtime::set_num_threads(threads);
  ShardedSimulation engine(test_server(aggregator),
                           VirtualPopulation(test_population()),
                           sharded_config(shard_size));
  engine.run(kRounds);
  runtime::set_num_threads(1);
  return nn::serialize_state(engine.server().global_model());
}

net::FlServerConfig socket_config() {
  net::FlServerConfig cfg;
  cfg.cohort_size = kPopulation;
  cfg.rounds = kRounds;
  cfg.selection_seed = kSelectionSeed;
  return cfg;
}

/// Serves kRounds over loopback to one net::FlClient per population member,
/// every party stepped on a shared virtual millisecond clock.
tensor::ByteBuffer run_socket(const AggregatorConfig& aggregator) {
  runtime::set_num_threads(1);
  const VirtualPopulation population(test_population());
  const std::unique_ptr<Server> core = test_server(aggregator);
  std::uint64_t t = 0;
  const net::TimeSource clock = [&t] { return t; };
  net::FlServer server(*core, socket_config(), clock);
  server.listen("127.0.0.1", 0);

  std::vector<std::unique_ptr<Client>> cores;
  std::vector<std::unique_ptr<net::FlClient>> clients;
  for (index_t i = 0; i < kPopulation; ++i) {
    cores.push_back(population.make_client(i));
    net::FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<net::FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", server.port());
  }
  for (int iter = 0; iter < 200000 && !server.finished(); ++iter, ++t) {
    server.step(0);
    for (auto& c : clients) {
      if (!c->finished()) c->step(0);
    }
  }
  EXPECT_TRUE(server.finished()) << "loopback federation did not finish";
  EXPECT_EQ(server.rounds_served(), static_cast<std::uint64_t>(kRounds));
  return nn::serialize_state(core->global_model());
}

void expect_engines_agree(const AggregatorConfig& aggregator) {
  const tensor::ByteBuffer want = run_simulation(aggregator);
  ASSERT_FALSE(want.empty());
  for (const index_t shard_size : {index_t{1}, index_t{3}, kPopulation}) {
    for (const index_t threads : {index_t{1}, index_t{4}}) {
      EXPECT_TRUE(run_sharded(aggregator, shard_size, threads) == want)
          << to_string(aggregator.kind) << ": sharded engine diverged at "
          << "shard_size=" << shard_size << " threads=" << threads;
    }
  }
  EXPECT_TRUE(run_socket(aggregator) == want)
      << to_string(aggregator.kind) << ": socket server diverged";
}

TEST(RoundCoreDifferential, FedAvgIsByteIdenticalAcrossEngines) {
  expect_engines_agree(parse_aggregator("fedavg"));
}

TEST(RoundCoreDifferential, NormBoundIsByteIdenticalAcrossEngines) {
  // A bound tight enough to clip every update: the result must differ from
  // FedAvg, or the test could not tell an ignored aggregator from a used one.
  const AggregatorConfig bounded = parse_aggregator("normbound:0.05");
  ASSERT_TRUE(run_simulation(bounded) !=
              run_simulation(parse_aggregator("fedavg")));
  expect_engines_agree(bounded);
}

TEST(RoundCoreDifferential, StreamingEnginesRefuseBufferingAggregators) {
  for (const char* spec : {"median", "trimmed:0.2"}) {
    const AggregatorConfig buffering = parse_aggregator(spec);
    EXPECT_THROW(ShardedSimulation(test_server(buffering),
                                   VirtualPopulation(test_population()),
                                   sharded_config(3)),
                 ConfigError)
        << spec;
    const std::unique_ptr<Server> core = test_server(buffering);
    EXPECT_THROW(net::FlServer(*core, socket_config()), ConfigError) << spec;
    // The materialized engine holds the whole cohort anyway and buffers.
    EXPECT_FALSE(run_simulation(buffering).empty()) << spec;
  }
}

// --- Faults and defenses through the shared client step ---------------------

constexpr index_t kFaultedRounds = 4;

/// Every fault kind. Straggler delays keep their defaults (at most 400
/// ticks, plus Simulation's 10 ticks of latency), inside Simulation's
/// 500-tick deadline, so a single-attempt Simulation collects exactly what
/// the sharded driver collects: the same loop under the same rule.
FaultPlan delivery_faults() {
  FaultConfig cfg;
  cfg.dropout_prob = 0.1;
  cfg.straggler_prob = 0.2;
  cfg.corrupt_prob = 0.3;
  cfg.poison_prob = 0.2;
  cfg.byzantine_fraction = 0.2;
  return FaultPlan(cfg);
}

using Tallies = std::map<std::string, std::uint64_t>;

/// The fl.fault.*, fl.defense.* and fl.validate.* counters, as of now.
Tallies tallies() {
  Tallies out;
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    for (const char* prefix : {"fl.fault.", "fl.defense.", "fl.validate."}) {
      if (name.rfind(prefix, 0) == 0) out[name] = value;
    }
  }
  return out;
}

struct Outcome {
  tensor::ByteBuffer model;
  Tallies counted;  // counter deltas over the run, zeros dropped
};

/// Runs `engine` under the delivery faults and a clip + noise + mask stack.
template <typename Engine>
Outcome run_defended(Engine& engine) {
  engine.set_fault_plan(delivery_faults());
  engine.set_defense_stack(parse_defense_stack("clip:1,noise:0.001,mask"));
  const Tallies before = tallies();
  engine.run(kFaultedRounds);
  Outcome out;
  out.model = nn::serialize_state(engine.server().global_model());
  for (const auto& [name, value] : tallies()) {
    const auto it = before.find(name);
    const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta != 0) out.counted[name] = delta;
  }
  return out;
}

TEST(RoundCoreDifferential, FaultedDefendedRoundsMatchAcrossInProcessEngines) {
  runtime::set_num_threads(1);
  SimulationConfig sim_cfg{/*clients_per_round=*/0, kSelectionSeed};
  sim_cfg.max_attempts = 1;
  Simulation sim(test_server(AggregatorConfig{}),
                 VirtualPopulation(test_population()).materialize(), sim_cfg);
  const Outcome want = run_defended(sim);
  // The input must exercise every delivery fault and every stack stage.
  for (const char* name :
       {"fl.fault.dropout", "fl.fault.straggler", "fl.fault.corrupt",
        "fl.fault.poison", "fl.fault.byzantine", "fl.fault.duplicate",
        "fl.defense.clip", "fl.defense.noise",
        "fl.defense.mask", "fl.validate.accepted", "fl.validate.rejected"}) {
    EXPECT_GT(want.counted.count(name), 0u) << name << " never counted";
  }

  for (const index_t shard_size : {index_t{1}, index_t{3}, kPopulation}) {
    for (const index_t threads : {index_t{1}, index_t{4}}) {
      runtime::set_num_threads(threads);
      ShardedSimulation engine(test_server(AggregatorConfig{}),
                               VirtualPopulation(test_population()),
                               sharded_config(shard_size));
      const Outcome got = run_defended(engine);
      runtime::set_num_threads(1);
      EXPECT_TRUE(got.model == want.model)
          << "sharded engine diverged at shard_size=" << shard_size
          << " threads=" << threads;
      EXPECT_EQ(got.counted, want.counted)
          << "shard_size=" << shard_size << " threads=" << threads;
    }
  }
}

// Pairwise masks cancel only in FedAvg's weighted sum: under a robust
// aggregator they are folded as noise. Both drivers refuse the pair when the
// round opens, before the ticket advances or any client trains.
TEST(RoundCoreDifferential, MaskUnderRobustAggregatorIsRefusedAtRoundOpen) {
  runtime::set_num_threads(1);
  const auto mask = parse_defense_stack("clip:1,mask");
  auto make_sim = [&](const AggregatorConfig& aggregator) {
    auto sim = std::make_unique<Simulation>(
        test_server(aggregator),
        VirtualPopulation(test_population()).materialize(),
        SimulationConfig{/*clients_per_round=*/4, kSelectionSeed});
    sim->set_defense_stack(mask);
    return sim;
  };
  auto fedavg = make_sim(AggregatorConfig{});
  fedavg->run(kRounds);
  const tensor::ByteBuffer want =
      nn::serialize_state(fedavg->server().global_model());

  for (const char* spec : {"median", "trimmed:0.2", "normbound:5"}) {
    auto sim = make_sim(parse_aggregator(spec));
    const tensor::ByteBuffer before =
        nn::serialize_state(sim->server().global_model());
    const std::uint64_t trained = obs::counter("fl.clients_trained").value();
    EXPECT_THROW(sim->run_round(), ConfigError) << spec;
    EXPECT_EQ(nn::serialize_state(sim->server().global_model()), before)
        << spec;
    EXPECT_EQ(sim->server().round(), 0u) << spec;
    EXPECT_EQ(obs::counter("fl.clients_trained").value(), trained) << spec;
    // Nothing advanced: under FedAvg the same federation now runs exactly
    // the rounds a fresh one runs.
    sim->server().set_aggregator(AggregatorConfig{});
    sim->run(kRounds);
    EXPECT_TRUE(nn::serialize_state(sim->server().global_model()) == want)
        << spec;
  }

  // The sharded driver refuses median and trimmed mean at construction;
  // normbound streams, so it reaches round open.
  ShardedSimulation engine(test_server(parse_aggregator("normbound:5")),
                           VirtualPopulation(test_population()),
                           sharded_config(3));
  engine.set_defense_stack(mask);
  const tensor::ByteBuffer before =
      nn::serialize_state(engine.server().global_model());
  EXPECT_THROW(engine.run_round(), ConfigError);
  EXPECT_EQ(nn::serialize_state(engine.server().global_model()), before);
  EXPECT_EQ(engine.server().round(), 0u);
  EXPECT_FALSE(engine.mid_round());
}

// --- Fold order ---------------------------------------------------------------

/// The FedAvg commit, bit for bit. Three updates with distinct example
/// counts go through RoundCore::offer/close; the committed model must equal
/// a test-local chain: the first update scaled (v·w), each later one fused
/// (std::fma(w, v, total)), the sum divided by W the way Tensor's /= does
/// (a multiply by 1/W), then the server's SGD step. The golden round folds
/// one update per round and the cross-engine suites run the same fold on
/// both sides of each comparison, so only this test sees a one-ulp change
/// to the fold's arithmetic or order.
TEST(RoundCoreFold, FedAvgCommitsTheFmaChainBitForBit) {
  constexpr real kLearningRate = 0.1;
  Server server(test_population().factory(), kLearningRate);
  std::vector<tensor::Tensor> want;
  for (const auto* p : server.global_model().parameters()) {
    want.push_back(p->value);
  }
  const GlobalModelMessage& msg = server.begin_round();
  RoundCore core(server);

  const index_t examples[] = {3, 7, 2};
  common::Rng rng(17);
  std::vector<tensor::Tensor> total;
  real weight_sum = 0.0;
  for (index_t k = 0; k < std::size(examples); ++k) {
    std::vector<tensor::Tensor> grads;
    for (const auto& t : want) {
      tensor::Tensor g(t.shape());
      for (auto& v : g.data()) v = rng.uniform(-1.0, 1.0);
      grads.push_back(std::move(g));
    }
    ClientUpdateMessage update;
    update.round = msg.round;
    update.client_id = k;
    update.num_examples = examples[k];
    update.gradients = tensor::serialize_tensors(grads);
    ASSERT_EQ(core.offer(update), RejectReason::kAccepted);

    const auto w = static_cast<real>(examples[k]);
    weight_sum += w;
    if (k == 0) {
      total = grads;
      for (auto& t : total) {
        for (auto& v : t.data()) v = v * w;
      }
      continue;
    }
    for (std::size_t i = 0; i < total.size(); ++i) {
      for (index_t j = 0; j < total[i].size(); ++j) {
        total[i][j] = std::fma(w, grads[i][j], total[i][j]);
      }
    }
  }
  ASSERT_TRUE(core.close(0));

  const real inverse = 1.0 / weight_sum;
  const auto params = server.global_model().parameters();
  ASSERT_EQ(params.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (index_t j = 0; j < want[i].size(); ++j) {
      want[i][j] =
          std::fma(-kLearningRate, total[i][j] * inverse, want[i][j]);
    }
    EXPECT_EQ(std::memcmp(params[i]->value.data().data(),
                          want[i].data().data(), want[i].size() * sizeof(real)),
              0)
        << "parameter " << i;
  }
}

// --- Checkpoint byte pin ----------------------------------------------------

/// Replaces each sampled image with values that are exact functions of its
/// label. The synthetic generator's floats depend on compile flags
/// (ROADMAP item 3), so pinned bytes would differ between the native
/// Release build and the sanitizer builds; the trained model must not.
class LabelImages : public BatchPreprocessor {
 public:
  data::Batch process(const data::Batch& batch,
                      common::Rng& /*rng*/) const override {
    data::Batch out = batch;
    const index_t per_image = out.images.size() / batch.size();
    for (index_t b = 0; b < batch.size(); ++b) {
      for (index_t j = 0; j < per_image; ++j) {
        out.images[b * per_image + j] =
            static_cast<real>((batch.labels[b] * 31 + j) % 17) / 16.0 - 0.5;
      }
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "label_images"; }
};

/// test_population() training on LabelImages.
VirtualPopulationConfig pinned_population() {
  VirtualPopulationConfig cfg = test_population();
  cfg.preprocessor = std::make_shared<LabelImages>();
  return cfg;
}

using SectionHashes = std::map<std::string, std::uint64_t>;

/// FNV-1a, not CRC32C: the model section and the agg partials embed a
/// CRC32C-sealed tensor list, and a CRC32C over bytes that contain
/// `m || crc32c(m)` does not depend on m (the CRC residue property), so a
/// CRC32C pin would not see the model or the partials at all.
std::uint64_t fnv1a64(const tensor::ByteBuffer& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

SectionHashes section_hashes(const tensor::ByteBuffer& bytes) {
  const ckpt::Snapshot snap = ckpt::Snapshot::parse(bytes);
  SectionHashes out;
  for (const auto& name : snap.names()) {
    if (name != "obs") out[name] = fnv1a64(snap.section(name));
  }
  return out;
}

std::string describe(const SectionHashes& hashes) {
  std::string s;
  for (const auto& [name, h] : hashes) {
    s += "{\"" + name + "\", " + std::to_string(h) + "ULL}, ";
  }
  return s;
}

TEST(CkptPin, RestingSimulationSnapshot) {
  runtime::set_num_threads(1);
  Simulation sim(test_server(AggregatorConfig{}),
                 VirtualPopulation(pinned_population()).materialize(),
                 SimulationConfig{/*clients_per_round=*/4, kSelectionSeed});
  sim.run(kRounds);
  const SectionHashes got = section_hashes(sim.encode_checkpoint());
  const SectionHashes want = {{"meta", 10767543001975947489ULL},
                              {"model", 8532633514198518015ULL},
                              {"rng", 4538035013014996162ULL}};
  EXPECT_EQ(got, want) << describe(got);
}

TEST(CkptPin, RestingShardedSnapshot) {
  runtime::set_num_threads(1);
  ShardedSimulation engine(test_server(AggregatorConfig{}),
                           VirtualPopulation(pinned_population()),
                           sharded_config(4));
  engine.run(kRounds);
  const SectionHashes got = section_hashes(engine.encode_checkpoint());
  const SectionHashes want = {{"meta", 6579547184322936016ULL},
                              {"model", 13475245740507531755ULL},
                              {"rng", 13038461949474610125ULL}};
  EXPECT_EQ(got, want) << describe(got);
}

TEST(CkptPin, MidRoundShardedSnapshot) {
  runtime::set_num_threads(1);
  ShardedSimulation engine(test_server(AggregatorConfig{}),
                           VirtualPopulation(pinned_population()),
                           sharded_config(4));
  tensor::ByteBuffer snapshot;
  engine.set_shard_hook([&](const ShardProgress& p) {
    if (p.ticket == 1 && p.shard == 0) snapshot = engine.encode_checkpoint();
  });
  engine.run(kRounds);
  ASSERT_FALSE(snapshot.empty());
  const SectionHashes got = section_hashes(snapshot);
  const SectionHashes want = {{"agg", 6468937512542094677ULL},
                              {"meta", 8226198574326373320ULL},
                              {"model", 3473652916859649483ULL},
                              {"rng", 690935468892015822ULL}};
  EXPECT_EQ(got, want) << describe(got);
}

/// Steps `server`, which listens already, and one net::FlClient per member
/// of `population` on the virtual millisecond clock `t` until the serving
/// schedule completes.
void serve_population(net::FlServer& server,
                      const VirtualPopulation& population, std::uint64_t& t) {
  const net::TimeSource clock = [&t] { return t; };
  std::vector<std::unique_ptr<Client>> cores;
  std::vector<std::unique_ptr<net::FlClient>> clients;
  for (index_t i = 0; i < population.size(); ++i) {
    cores.push_back(population.make_client(i));
    net::FlClientConfig ccfg;
    ccfg.client_id = i;
    clients.push_back(std::make_unique<net::FlClient>(*cores[i], ccfg, clock));
    clients[i]->connect("127.0.0.1", server.port());
  }
  for (int iter = 0; iter < 200000 && !server.finished(); ++iter, ++t) {
    server.step(0);
    for (auto& c : clients) {
      if (!c->finished()) c->step(0);
    }
  }
}

/// Serves the pinned population over loopback with a checkpoint after
/// every fold, and stops the server at its first mid-round save: the one
/// after the fold of the round order's first member. Returns that
/// snapshot's bytes.
tensor::ByteBuffer socket_midround_snapshot() {
  runtime::set_num_threads(1);
  const testutil::ScratchDir dir("ckpt_socket_pin");
  ckpt::CheckpointManager manager(dir.str(), /*keep=*/4);
  const std::unique_ptr<Server> core = test_server(AggregatorConfig{});
  net::FlServerConfig cfg = socket_config();
  cfg.checkpoint = &manager;
  cfg.checkpoint_every_accepts = 1;
  std::uint64_t t = 0;
  net::FlServer server(*core, cfg, [&t] { return t; });
  server.listen("127.0.0.1", 0);  // saves the generation-0 resting snapshot
  bool saved = false;
  struct Stop {};
  server.set_event_hook([&saved](net::FlServer::Event e) {
    if (e != net::FlServer::Event::kCheckpointSaved) return;
    saved = true;
    throw Stop{};  // before the step folds anyone else
  });
  try {
    serve_population(server, VirtualPopulation(pinned_population()), t);
  } catch (const Stop&) {
  }
  EXPECT_TRUE(saved) << "no mid-round checkpoint was saved";
  return ckpt::read_file(manager.path_for(manager.generations().back()));
}

TEST(CkptPin, MidRoundSocketSnapshot) {
  const SectionHashes got = section_hashes(socket_midround_snapshot());
  const SectionHashes want = {{"agg", 6009001248549045754ULL},
                              {"meta", 16829035762537511386ULL},
                              {"model", 8584149163835742024ULL},
                              {"rng", 17650050425202492998ULL}};
  EXPECT_EQ(got, want) << describe(got);
}

// --- Cross-engine refusal ---------------------------------------------------

/// Runs `restore`, which must throw CheckpointError{kStateMismatch}.
void expect_state_mismatch(const std::function<void()>& restore) {
  try {
    restore();
    ADD_FAILURE() << "a foreign engine's snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), CheckpointError::Reason::kStateMismatch)
        << e.what();
  }
}

// Every engine's "meta" section opens with its engine tag, so each engine
// refuses another's snapshot before anything live changes. Each live engine
// has run a round, and after the refusal it runs the next round exactly as
// an untouched twin does.
TEST(CkptRefusal, SocketSnapshotIntoInProcessEngines) {
  const tensor::ByteBuffer foreign = socket_midround_snapshot();
  runtime::set_num_threads(1);

  const auto sharded = [] {
    return std::make_unique<ShardedSimulation>(
        test_server(AggregatorConfig{}),
        VirtualPopulation(pinned_population()), sharded_config(4));
  };
  auto engine = sharded();
  auto twin = sharded();
  engine->run_round();
  twin->run_round();
  expect_state_mismatch([&] { engine->restore_checkpoint(foreign); });
  EXPECT_FALSE(engine->mid_round());
  EXPECT_EQ(engine->server().round(), 1u);
  engine->run_round();
  twin->run_round();
  EXPECT_TRUE(nn::serialize_state(engine->server().global_model()) ==
              nn::serialize_state(twin->server().global_model()));

  const auto simulation = [] {
    return std::make_unique<Simulation>(
        test_server(AggregatorConfig{}),
        VirtualPopulation(pinned_population()).materialize(),
        SimulationConfig{/*clients_per_round=*/4, kSelectionSeed});
  };
  auto sim = simulation();
  auto sim_twin = simulation();
  EXPECT_EQ(sim->run_round(), sim_twin->run_round());
  expect_state_mismatch([&] { sim->restore_checkpoint(foreign); });
  EXPECT_EQ(sim->server().round(), 1u);
  EXPECT_EQ(sim->run_round(), sim_twin->run_round());
  EXPECT_TRUE(nn::serialize_state(sim->server().global_model()) ==
              nn::serialize_state(sim_twin->server().global_model()));
}

TEST(CkptRefusal, LoopSnapshotThroughSocketResume) {
  runtime::set_num_threads(1);
  const tensor::ByteBuffer want = run_socket(AggregatorConfig{});
  const testutil::ScratchDir dir("ckpt_refusal_loop");
  Simulation sim(test_server(AggregatorConfig{}),
                 VirtualPopulation(test_population()).materialize(),
                 SimulationConfig{/*clients_per_round=*/0, kSelectionSeed});
  ShardedSimulation engine(test_server(AggregatorConfig{}),
                           VirtualPopulation(test_population()),
                           sharded_config(3));
  sim.run_round();
  engine.run_round();
  using Save = std::function<void(ckpt::CheckpointManager&)>;
  for (const auto& [leaf, save] : std::vector<std::pair<std::string, Save>>{
           {"simulation", [&](auto& m) { sim.save_checkpoint(m); }},
           {"sharded", [&](auto& m) { engine.save_checkpoint(m); }}}) {
    ckpt::CheckpointManager manager(dir.path(leaf), /*keep=*/4);
    save(manager);
    const std::unique_ptr<Server> core = test_server(AggregatorConfig{});
    const tensor::ByteBuffer before = nn::serialize_state(core->global_model());
    net::FlServerConfig cfg = socket_config();
    cfg.checkpoint = &manager;
    std::uint64_t t = 0;
    net::FlServer server(*core, cfg, [&t] { return t; });
    expect_state_mismatch([&] { server.resume_from(); });
    EXPECT_EQ(core->round(), 0u);
    EXPECT_TRUE(nn::serialize_state(core->global_model()) == before);
    // Untouched: it serves the rounds a fresh server serves.
    server.listen("127.0.0.1", 0);
    serve_population(server, VirtualPopulation(test_population()), t);
    EXPECT_EQ(server.rounds_served(), static_cast<std::uint64_t>(kRounds));
    EXPECT_TRUE(nn::serialize_state(core->global_model()) == want) << leaf;
  }
}

}  // namespace
}  // namespace oasis::fl
