// Differential + unit proofs for the sharded streaming round engine.
//
// The load-bearing suite is the differential one: fl::ShardedSimulation over
// a VirtualPopulation must be BYTE-IDENTICAL — final model bytes and the
// shared obs counters — to fl::Simulation over the materialized population,
// at shard sizes {1, 7, 64} and thread counts {1, 8}. That is the engine's
// whole contract: O(shard) memory buys nothing if the protocol output
// drifts. The remaining tests pin the hash-threshold sampler's determinism,
// the mid-round checkpoint round-trip, snapshot cross-config rejection, and
// quorum-abort semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "common/error.h"
#include "common/rng.h"
#include "fl/population.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace oasis::fl {
namespace {

constexpr std::uint64_t kPopulationSeed = 0xBEEF;
constexpr std::uint64_t kSelectionSeed = 41;
constexpr index_t kPopulation = 24;
constexpr index_t kCohort = 10;
constexpr index_t kRounds = 3;

VirtualPopulationConfig test_population(index_t num_clients = kPopulation) {
  VirtualPopulationConfig cfg;
  cfg.num_clients = num_clients;
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

std::unique_ptr<Server> test_server() {
  return std::make_unique<Server>(test_population().factory(),
                                  /*learning_rate=*/0.1);
}

/// The counters BOTH engines emit on the honest path. Everything else —
/// the sharded engine's fl.shard.* gauges, the materialized engine's clock
/// bookkeeping — is engine-shaped and excluded from the differential.
std::map<std::string, std::uint64_t> shared_counters() {
  static const std::vector<std::string> kExact = {
      "fl.rounds", "fl.clients_trained", "fl.bytes_dispatched",
      "fl.bytes_uploaded"};
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    const bool validate = name.rfind("fl.validate.", 0) == 0;
    const bool exact =
        std::find(kExact.begin(), kExact.end(), name) != kExact.end();
    if (validate || exact) out[name] = value;
  }
  return out;
}

struct RunResult {
  tensor::ByteBuffer model;
  std::map<std::string, std::uint64_t> counters;
};

RunResult run_sharded(index_t threads, index_t shard_size,
                      CohortSampler sampler = CohortSampler::kFisherYates,
                      index_t rounds = kRounds) {
  runtime::set_num_threads(threads);
  obs::Registry::global().reset();
  ShardedConfig cfg;
  cfg.cohort_size = kCohort;
  cfg.shard_size = shard_size;
  cfg.seed = kSelectionSeed;
  cfg.sampler = sampler;
  ShardedSimulation engine(test_server(), VirtualPopulation(test_population()),
                           cfg);
  engine.run(rounds);
  return {nn::serialize_state(engine.server().global_model()),
          shared_counters()};
}

RunResult run_materialized(index_t threads, index_t rounds = kRounds) {
  runtime::set_num_threads(threads);
  obs::Registry::global().reset();
  VirtualPopulation population(test_population());
  Simulation sim(test_server(), population.materialize(),
                 SimulationConfig{kCohort, kSelectionSeed});
  sim.run(rounds);
  return {nn::serialize_state(sim.server().global_model()),
          shared_counters()};
}

void expect_differential_identity(index_t threads) {
  const RunResult reference = run_materialized(threads);
  ASSERT_FALSE(reference.model.empty());
  ASSERT_EQ(reference.counters.at("fl.rounds"), kRounds);
  ASSERT_EQ(reference.counters.at("fl.clients_trained"), kRounds * kCohort);
  for (const index_t shard_size : {index_t{1}, index_t{7}, index_t{64}}) {
    const RunResult sharded = run_sharded(threads, shard_size);
    EXPECT_EQ(sharded.model, reference.model)
        << "model bytes diverged at shard_size=" << shard_size
        << " threads=" << threads;
    EXPECT_EQ(sharded.counters, reference.counters)
        << "shared obs counters diverged at shard_size=" << shard_size
        << " threads=" << threads;
  }
}

// --- The differential proof: sharded == materialized, byte for byte --------

TEST(ShardDifferential, MatchesMaterializedSimulation_Serial) {
  expect_differential_identity(1);
}

TEST(ShardDifferential, MatchesMaterializedSimulation_Threads8) {
  expect_differential_identity(8);
}

// The sharded engine must also agree with ITSELF across thread counts —
// the parallel region only trains; fold order is thread-independent.
TEST(ShardDifferential, ThreadCountInvariant) {
  const RunResult serial = run_sharded(1, 7);
  const RunResult threaded = run_sharded(8, 7);
  EXPECT_EQ(serial.model, threaded.model);
  EXPECT_EQ(serial.counters, threaded.counters);
}

// A dishonest server sees every update it screens under either engine: the
// sharded engine never calls finish_round, so a capture there proves the
// hook sits in screen_update.
TEST(ShardDifferential, MaliciousServerCapturesTheSameUpdatesUnderBothEngines) {
  runtime::set_num_threads(1);
  const auto malicious = [] {
    return std::make_unique<MaliciousServer>(
        test_population().factory(), /*learning_rate=*/0.1,
        [](nn::Sequential& model) {
          model.parameters().front()->value *= 1.5;
        });
  };

  obs::Registry::global().reset();
  auto reference_server = malicious();
  const MaliciousServer& reference = *reference_server;
  VirtualPopulation population(test_population());
  Simulation sim(std::move(reference_server), population.materialize(),
                 SimulationConfig{kCohort, kSelectionSeed});
  sim.run(kRounds);

  obs::Registry::global().reset();
  auto sharded_server = malicious();
  const MaliciousServer& sharded = *sharded_server;
  ShardedConfig cfg;
  cfg.cohort_size = kCohort;
  cfg.shard_size = 2;
  cfg.seed = kSelectionSeed;
  cfg.sampler = CohortSampler::kFisherYates;
  ShardedSimulation engine(std::move(sharded_server),
                           VirtualPopulation(test_population()), cfg);
  engine.run(kRounds);

  ASSERT_EQ(reference.captured().size(), kRounds * kCohort);
  ASSERT_EQ(sharded.captured().size(), reference.captured().size());
  for (std::size_t i = 0; i < reference.captured().size(); ++i) {
    const ClientUpdateMessage& a = reference.captured()[i];
    const ClientUpdateMessage& b = sharded.captured()[i];
    EXPECT_EQ(b.round, a.round) << "update " << i;
    EXPECT_EQ(b.client_id, a.client_id) << "update " << i;
    EXPECT_EQ(b.num_examples, a.num_examples) << "update " << i;
    EXPECT_EQ(b.gradients, a.gradients) << "update " << i;
  }
}

// --- Hash-threshold sampler -------------------------------------------------

TEST(ShardSampler, HashThresholdRunsAreDeterministic) {
  const RunResult a = run_sharded(1, 16, CohortSampler::kHashThreshold);
  const RunResult b = run_sharded(1, 16, CohortSampler::kHashThreshold);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(ShardSampler, HashThresholdCohortsAreFreshEachRound) {
  // Distinct round tickets must hash to distinct cohorts: over three rounds
  // with a ~40% participation target, identical consecutive cohorts mean the
  // ticket is not feeding the mix.
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  ShardedConfig cfg;
  cfg.cohort_size = 200;
  cfg.shard_size = 64;
  cfg.seed = kSelectionSeed;
  cfg.sampler = CohortSampler::kHashThreshold;
  VirtualPopulation population(test_population(512));
  const std::uint64_t threshold = cohort_threshold(200, 512);
  std::vector<std::vector<std::uint64_t>> cohorts;
  for (std::uint64_t ticket = 0; ticket < 3; ++ticket) {
    std::vector<std::uint64_t> members;
    for (std::uint64_t id = 0; id < 512; ++id) {
      if (cohort_member(kSelectionSeed, ticket, id, threshold)) {
        members.push_back(id);
      }
    }
    // Binomial around 200: grossly off means the threshold is wrong.
    EXPECT_GT(members.size(), 120u) << "ticket " << ticket;
    EXPECT_LT(members.size(), 280u) << "ticket " << ticket;
    cohorts.push_back(std::move(members));
  }
  EXPECT_NE(cohorts[0], cohorts[1]);
  EXPECT_NE(cohorts[1], cohorts[2]);

  // And the engine resolves exactly these cohorts, in ascending-id order.
  ShardedSimulation engine(test_server(), std::move(population), cfg);
  for (std::uint64_t ticket = 0; ticket < 3; ++ticket) {
    std::vector<std::uint64_t> folded;
    engine.set_client_hook(
        [&folded](std::uint64_t id, index_t) { folded.push_back(id); });
    const index_t resolved = engine.run_round();
    EXPECT_EQ(resolved, cohorts[ticket].size());
    EXPECT_EQ(folded, cohorts[ticket]);
  }
}

TEST(ShardSampler, FullCohortSentinelSelectsEveryone) {
  EXPECT_EQ(cohort_threshold(512, 512), ~0ULL);
  const std::uint64_t threshold = cohort_threshold(512, 512);
  for (std::uint64_t id : {0ULL, 17ULL, 511ULL}) {
    EXPECT_TRUE(cohort_member(kSelectionSeed, 0, id, threshold));
  }
  EXPECT_THROW((void)cohort_threshold(513, 512), ConfigError);
  EXPECT_THROW((void)cohort_threshold(1, 0), ConfigError);
}

// --- Config validation ------------------------------------------------------

TEST(ShardConfig, RejectsInvalidConfigs) {
  ShardedConfig zero_shard;
  zero_shard.shard_size = 0;
  EXPECT_THROW(ShardedSimulation(test_server(),
                                 VirtualPopulation(test_population()),
                                 zero_shard),
               ConfigError);
  ShardedConfig oversized_cohort;
  oversized_cohort.cohort_size = kPopulation + 1;
  EXPECT_THROW(ShardedSimulation(test_server(),
                                 VirtualPopulation(test_population()),
                                 oversized_cohort),
               ConfigError);
  ShardedConfig bad_quorum;
  bad_quorum.quorum_fraction = 1.5;
  EXPECT_THROW(ShardedSimulation(test_server(),
                                 VirtualPopulation(test_population()),
                                 bad_quorum),
               ConfigError);
}

// --- Mid-round checkpoint round-trip ----------------------------------------

ShardedConfig ckpt_config() {
  ShardedConfig cfg;
  cfg.cohort_size = kCohort;
  cfg.shard_size = 3;  // 10-client cohort → 4 shards: real mid-round states
  cfg.seed = kSelectionSeed;
  return cfg;
}

TEST(ShardCheckpoint, MidRoundSnapshotResumesBitExact) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();

  // Reference run captures a snapshot at round 1, after its second shard.
  ShardedSimulation reference(test_server(),
                              VirtualPopulation(test_population()),
                              ckpt_config());
  tensor::ByteBuffer snapshot;
  reference.set_shard_hook([&](const ShardProgress& p) {
    if (p.ticket == 1 && p.shard == 1) {
      EXPECT_TRUE(reference.mid_round());
      EXPECT_EQ(p.num_shards, 4u);
      snapshot = reference.encode_checkpoint();
    }
  });
  reference.run(kRounds);
  ASSERT_FALSE(snapshot.empty());
  const tensor::ByteBuffer want =
      nn::serialize_state(reference.server().global_model());

  // A fresh engine restored from the mid-round snapshot must land on the
  // same final bytes after finishing the in-flight round and the rest.
  ShardedSimulation resumed(test_server(),
                            VirtualPopulation(test_population()),
                            ckpt_config());
  resumed.restore_checkpoint(snapshot);
  EXPECT_TRUE(resumed.mid_round());
  EXPECT_EQ(resumed.server().round(), 1u);
  while (resumed.server().round() < kRounds) {
    resumed.run_round();
  }
  EXPECT_EQ(nn::serialize_state(resumed.server().global_model()), want);
}

TEST(ShardCheckpoint, RestingSnapshotResumesBitExact) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  ShardedSimulation reference(test_server(),
                              VirtualPopulation(test_population()),
                              ckpt_config());
  reference.run(1);
  const tensor::ByteBuffer snapshot = reference.encode_checkpoint();
  reference.run(kRounds - 1);
  const tensor::ByteBuffer want =
      nn::serialize_state(reference.server().global_model());

  ShardedSimulation resumed(test_server(),
                            VirtualPopulation(test_population()),
                            ckpt_config());
  resumed.restore_checkpoint(snapshot);
  EXPECT_FALSE(resumed.mid_round());
  resumed.run(kRounds - 1);
  EXPECT_EQ(nn::serialize_state(resumed.server().global_model()), want);
}

TEST(ShardCheckpoint, RejectsSnapshotFromDifferentFederation) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  ShardedSimulation source(test_server(),
                           VirtualPopulation(test_population()),
                           ckpt_config());
  source.run(1);
  const tensor::ByteBuffer snapshot = source.encode_checkpoint();

  // Different population size → kStateMismatch, live engine untouched.
  ShardedSimulation other(test_server(),
                          VirtualPopulation(test_population(kPopulation + 8)),
                          ckpt_config());
  try {
    other.restore_checkpoint(snapshot);
    FAIL() << "cross-federation snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.reason(), CheckpointError::Reason::kStateMismatch);
  }
  EXPECT_EQ(other.server().round(), 0u);
  EXPECT_FALSE(other.mid_round());
  EXPECT_EQ(other.run_round(), kCohort);  // still fully operational
}

TEST(ShardCheckpoint, RejectsMaterializedEngineSnapshot) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  VirtualPopulation population(test_population());
  Simulation sim(test_server(), population.materialize(),
                 SimulationConfig{kCohort, kSelectionSeed});
  sim.run_round();
  const tensor::ByteBuffer foreign = sim.encode_checkpoint();

  ShardedSimulation engine(test_server(),
                           VirtualPopulation(test_population()),
                           ckpt_config());
  EXPECT_THROW(engine.restore_checkpoint(foreign), CheckpointError);
  EXPECT_EQ(engine.server().round(), 0u);
}

TEST(ShardCheckpoint, GenerationsInterleaveRoundsAndShards) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  const testutil::ScratchDir dir("shard_generations");
  ckpt::CheckpointManager manager(dir.str(), /*keep=*/16);

  ShardedSimulation engine(test_server(),
                           VirtualPopulation(test_population()),
                           ckpt_config());
  std::vector<std::string> paths;
  engine.set_shard_hook([&](const ShardProgress& p) {
    if (p.shard + 1 < p.num_shards) {  // skip the final (resting) boundary
      paths.push_back(engine.save_checkpoint(manager));
    }
  });
  engine.run(2);
  engine.set_shard_hook({});
  paths.push_back(engine.save_checkpoint(manager));
  ASSERT_GE(paths.size(), 4u);

  const auto gens = manager.generations();
  ASSERT_EQ(gens.size(), paths.size());
  for (std::size_t i = 1; i < gens.size(); ++i) {
    EXPECT_LT(gens[i - 1], gens[i]) << "generation order must be monotone";
  }

  // resume_from lands on the newest (resting, post-round-2) snapshot.
  ShardedSimulation resumed(test_server(),
                            VirtualPopulation(test_population()),
                            ckpt_config());
  EXPECT_EQ(resumed.resume_from(manager), 2u);
  EXPECT_FALSE(resumed.mid_round());
  EXPECT_EQ(nn::serialize_state(resumed.server().global_model()),
            nn::serialize_state(engine.server().global_model()));
}

TEST(ShardCheckpoint, MidRoundResumeRefusesMaliciousServer) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  ShardedSimulation honest(test_server(), VirtualPopulation(test_population()),
                           ckpt_config());
  tensor::ByteBuffer mid_snapshot;
  honest.set_shard_hook([&](const ShardProgress& p) {
    if (p.ticket == 1 && p.shard == 1) {
      mid_snapshot = honest.encode_checkpoint();
    }
  });
  honest.run(2);
  ASSERT_FALSE(mid_snapshot.empty());
  honest.set_shard_hook({});
  const tensor::ByteBuffer resting_snapshot = honest.encode_checkpoint();

  // Finishing the in-flight round would re-run begin_round() and apply the
  // manipulation twice, so the restore is refused before any mutation.
  int manipulations = 0;
  ShardedSimulation engine(
      std::make_unique<MaliciousServer>(
          test_population().factory(), /*learning_rate=*/0.1,
          [&manipulations](nn::Sequential&) { ++manipulations; }),
      VirtualPopulation(test_population()), ckpt_config());
  const tensor::ByteBuffer before =
      nn::serialize_state(engine.server().global_model());
  EXPECT_THROW(engine.restore_checkpoint(mid_snapshot), ConfigError);
  EXPECT_EQ(manipulations, 0);
  EXPECT_EQ(engine.server().round(), 0u);
  EXPECT_FALSE(engine.mid_round());
  EXPECT_EQ(nn::serialize_state(engine.server().global_model()), before);

  // A resting snapshot re-runs nothing and stays restorable.
  engine.restore_checkpoint(resting_snapshot);
  EXPECT_EQ(manipulations, 0);
  EXPECT_EQ(engine.server().round(), 2u);
  EXPECT_FALSE(engine.mid_round());
}

// --- Quorum -----------------------------------------------------------------

TEST(ShardQuorum, AbortLeavesModelUntouchedAndNextRoundProceeds) {
  runtime::set_num_threads(1);
  obs::Registry::global().reset();
  ShardedConfig cfg = ckpt_config();
  cfg.quorum_fraction = 1.0;
  ShardedSimulation engine(test_server(),
                           VirtualPopulation(test_population()), cfg);

  FaultConfig all_drop;
  all_drop.dropout_prob = 1.0;
  engine.set_fault_plan(FaultPlan(all_drop));
  const tensor::ByteBuffer before =
      nn::serialize_state(engine.server().global_model());
  EXPECT_THROW(engine.run_round(), QuorumError);
  EXPECT_EQ(nn::serialize_state(engine.server().global_model()), before);
  EXPECT_EQ(engine.server().round(), 0u);
  EXPECT_FALSE(engine.mid_round());

  // Faults cleared, the retried protocol round commits on a FRESH ticket.
  engine.set_fault_plan(FaultPlan());
  EXPECT_EQ(engine.run_round(), kCohort);
  EXPECT_EQ(engine.server().round(), 1u);
  EXPECT_NE(nn::serialize_state(engine.server().global_model()), before);
}

}  // namespace
}  // namespace oasis::fl
