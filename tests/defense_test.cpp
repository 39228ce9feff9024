// Defense & robustness suite (ctest label "defense").
//
// Pins the PR-10 contracts:
//   * DefenseStack stages (clip / noise / secagg mask) are pure functions of
//     (stack seed, round, client, stage index) — defended federations are
//     byte-identical at 1 vs 8 threads, with identical fl.defense.* counters;
//   * parse_defense_stack round-trips specs and rejects malformed ones;
//   * pairwise masks cancel in the equal-weight full-cohort sum;
//   * the client-side audit gate (attack::make_model_auditor) refuses RTF and
//     half-negative-trap CAH implants, never refuses an honest init across
//     120 seeds, and a refusing client is excluded gracefully — the round
//     proceeds with the remaining cohort — in the materialized engine, the
//     sharded engine, and the socket path;
//   * Byzantine chaos: with sign-flip attackers at f/n ∈ {0.1, 0.3},
//     coordinate-median and trimmed-mean keep the final model within ε of
//     the clean run while plain FedAvg is dragged far away;
//   * UpdatePipelinePin: the committed model of a defended, faulted
//     federation, pinned by CRC32C (ctest label "golden").
// ci.sh's defense stage re-runs ByzantineChaos, DefenseDeterminism and
// UpdatePipelinePin under TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/audit.h"
#include "attack/cah.h"
#include "attack/rtf.h"
#include "common/crc32c.h"
#include "data/synthetic.h"
#include "fl/defense.h"
#include "fl/fault.h"
#include "fl/population.h"
#include "fl/server.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "tensor/serialize.h"

namespace oasis::fl {
namespace {

constexpr nn::ImageSpec kSpec{3, 10, 10};
constexpr index_t kNeurons = 40;
constexpr index_t kClasses = 6;

data::InMemoryDataset tiny_dataset(index_t per_class, std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = kClasses;
  cfg.height = cfg.width = 10;
  cfg.train_per_class = per_class;
  cfg.test_per_class = 0;
  cfg.seed = seed;
  return data::generate(cfg).train;
}

ModelFactory host_factory(std::uint64_t seed) {
  return [seed] {
    common::Rng rng(seed);
    return nn::make_attack_host(kSpec, kNeurons, kClasses, rng);
  };
}

std::unique_ptr<Simulation> make_federation(index_t n_clients,
                                            SimulationConfig config,
                                            ModelAuditor auditor = {},
                                            index_t audited_clients = 0) {
  const auto data = tiny_dataset(/*per_class=*/8, /*seed=*/33);
  const auto shards = data.shard(n_clients);
  std::vector<std::unique_ptr<Client>> clients;
  for (index_t i = 0; i < n_clients; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], host_factory(40), /*batch_size=*/3,
        std::make_shared<IdentityPreprocessor>(), common::Rng(500 + i)));
    if (auditor && i < audited_clients) clients[i]->set_model_auditor(auditor);
  }
  auto server = std::make_unique<Server>(host_factory(40)(), 0.1);
  return std::make_unique<Simulation>(std::move(server), std::move(clients),
                                      config);
}

std::vector<tensor::Tensor> toy_gradients(std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<tensor::Tensor> grads;
  grads.push_back(tensor::Tensor(tensor::Shape{4, 3}));
  grads.push_back(tensor::Tensor(tensor::Shape{7}));
  for (auto& t : grads) {
    for (auto& v : t.data()) v = rng.normal(0.0, 1.0);
  }
  return grads;
}

real global_norm(const std::vector<tensor::Tensor>& grads) {
  real sq = 0.0;
  for (const auto& t : grads) {
    for (const auto v : t.data()) sq += v * v;
  }
  return std::sqrt(sq);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [n, v] : obs::Registry::global().counters()) {
    if (n == name) return v;
  }
  return 0;
}

// --- Defense stages ----------------------------------------------------------

TEST(Defense, ClipBoundsGlobalNormAndPreservesDirection) {
  auto grads = toy_gradients(1);
  auto original = grads;
  const real norm = global_norm(grads);
  ASSERT_GT(norm, 1.0);

  const ClipDefense clip(norm / 2);
  common::Rng rng(0);
  clip.apply(grads, rng, DefenseContext{});
  EXPECT_NEAR(global_norm(grads), norm / 2, 1e-9);
  // Direction preserved: clipped = scale * original, elementwise.
  const real scale = (norm / 2) / norm;
  for (std::size_t t = 0; t < grads.size(); ++t) {
    for (index_t i = 0; i < grads[t].size(); ++i) {
      EXPECT_DOUBLE_EQ(grads[t][i], original[t][i] * scale);
    }
  }

  // Under the bound: bit-exact no-op.
  auto small = toy_gradients(2);
  auto small_copy = small;
  const ClipDefense loose(global_norm(small) * 10);
  loose.apply(small, rng, DefenseContext{});
  for (std::size_t t = 0; t < small.size(); ++t) {
    for (index_t i = 0; i < small[t].size(); ++i) {
      EXPECT_EQ(small[t][i], small_copy[t][i]);
    }
  }

  EXPECT_THROW(ClipDefense(0.0), ConfigError);
  EXPECT_THROW(ClipDefense(-1.0), ConfigError);
  EXPECT_THROW(ClipDefense(std::numeric_limits<real>::infinity()),
               ConfigError);
  EXPECT_THROW(GaussianNoiseDefense(0.0), ConfigError);
  EXPECT_THROW(GaussianNoiseDefense(std::numeric_limits<real>::infinity()),
               ConfigError);
}

TEST(Defense, StackStreamsArePureFunctionsOfRoundClientAndStage) {
  DefenseStack stack;
  stack.add(std::make_unique<GaussianNoiseDefense>(0.1));

  DefenseContext ctx;
  ctx.round = 3;
  ctx.client_id = 7;
  auto a = toy_gradients(9);
  auto b = toy_gradients(9);
  stack.apply(a, ctx);
  stack.apply(b, ctx);
  for (std::size_t t = 0; t < a.size(); ++t) {
    for (index_t i = 0; i < a[t].size(); ++i) EXPECT_EQ(a[t][i], b[t][i]);
  }

  // A different round or client draws a different stream.
  auto c = toy_gradients(9);
  ctx.round = 4;
  stack.apply(c, ctx);
  bool differs = false;
  for (std::size_t t = 0; t < a.size() && !differs; ++t) {
    for (index_t i = 0; i < a[t].size(); ++i) {
      if (a[t][i] != c[t][i]) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Defense, ParseSpecPreservesOrderAndRejectsMalformedTokens) {
  const auto stack = parse_defense_stack("clip:10,noise:0.01,mask");
  EXPECT_EQ(stack->size(), 3u);
  EXPECT_EQ(stack->name(), "clip(10)+noise(0.01)+mask");
  EXPECT_TRUE(stack->requires_cohort());

  EXPECT_TRUE(parse_defense_stack("")->empty());
  EXPECT_TRUE(parse_defense_stack("none")->empty());
  EXPECT_FALSE(parse_defense_stack("clip:5")->requires_cohort());

  EXPECT_THROW(parse_defense_stack("clip"), ConfigError);
  EXPECT_THROW(parse_defense_stack("clip:0"), ConfigError);
  EXPECT_THROW(parse_defense_stack("clip:abc"), ConfigError);
  EXPECT_THROW(parse_defense_stack("clip:1x"), ConfigError);
  EXPECT_THROW(parse_defense_stack("noise:-0.5"), ConfigError);
  EXPECT_THROW(parse_defense_stack("bogus"), ConfigError);
  // OASIS is the clients' preprocessor, not an update stage.
  EXPECT_THROW(parse_defense_stack("oasis"), ConfigError);
}

TEST(Defense, MaskStageNeedsACohort) {
  const auto stack = parse_defense_stack("mask");
  ClientUpdateMessage update;
  update.round = 1;
  update.client_id = 0;
  update.num_examples = 1;
  update.gradients = tensor::serialize_tensors(toy_gradients(4));
  EXPECT_THROW(stack->apply(update), ConfigError);

  // The static cohort unblocks the socket path.
  auto configured = parse_defense_stack("mask");
  configured->set_static_cohort({0, 1, 2});
  EXPECT_NO_THROW(configured->apply(update));
}

TEST(Defense, MasksCancelInEqualWeightFullCohortSum) {
  const std::vector<std::uint64_t> cohort{0, 1, 2, 3};
  const auto stack = parse_defense_stack("mask");

  // Zero gradients isolate the masks: the cohort sum is exactly the
  // telescoped pairwise masks, which must vanish (up to fp fold error).
  std::vector<tensor::Tensor> sum;
  for (const auto id : cohort) {
    std::vector<tensor::Tensor> grads;
    grads.push_back(tensor::Tensor(tensor::Shape{5, 2}));
    grads.push_back(tensor::Tensor(tensor::Shape{3}));
    DefenseContext ctx;
    ctx.round = 6;
    ctx.client_id = id;
    ctx.cohort = cohort;
    stack->apply(grads, ctx);
    // An individual masked update is NOT zero (it is masked noise).
    EXPECT_GT(global_norm(grads), 0.1);
    if (sum.empty()) {
      sum = std::move(grads);
    } else {
      for (std::size_t t = 0; t < sum.size(); ++t) sum[t] += grads[t];
    }
  }
  EXPECT_LT(global_norm(sum), 1e-9);
}

// --- Defended-federation determinism ----------------------------------------

struct DefendedRun {
  tensor::ByteBuffer final_state;
  std::map<std::string, std::uint64_t> counters;
};

DefendedRun run_defended(index_t threads, const std::string& spec) {
  runtime::set_num_threads(threads);
  obs::Registry::global().reset();
  SimulationConfig sc;
  sc.clients_per_round = 4;
  sc.seed = 11;
  auto sim = make_federation(/*n_clients=*/6, sc);
  sim->set_defense_stack(parse_defense_stack(spec));
  sim->run(3);
  DefendedRun out;
  out.final_state = nn::serialize_state(sim->server().global_model());
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    if (name.rfind("fl.defense.", 0) == 0) out.counters[name] = value;
  }
  return out;
}

TEST(DefenseDeterminism, DefendedRoundsAreByteIdenticalAt1Vs8Threads) {
  for (const std::string spec :
       {"clip:5,noise:0.01", "clip:5,noise:0.01,mask", "noise:0.01,clip:5"}) {
    const auto one = run_defended(1, spec);
    const auto eight = run_defended(8, spec);
    runtime::set_num_threads(0);
    EXPECT_EQ(one.final_state, eight.final_state) << "spec: " << spec;
    EXPECT_EQ(one.counters, eight.counters) << "spec: " << spec;
    EXPECT_GT(one.counters.at("fl.defense.applied"), 0u);
  }
}

TEST(DefenseDeterminism, StageCountersLandPerStage) {
  const auto run = run_defended(1, "clip:0.0001,noise:0.01");
  runtime::set_num_threads(0);
  // 3 rounds × 4 clients, every update passes both stages; the tiny clip
  // bound guarantees the clip actually bites every time.
  EXPECT_EQ(run.counters.at("fl.defense.applied"), 12u);
  EXPECT_EQ(run.counters.at("fl.defense.clip"), 12u);
  EXPECT_EQ(run.counters.at("fl.defense.clip.active"), 12u);
  EXPECT_EQ(run.counters.at("fl.defense.noise"), 12u);
}

// --- Audit gate --------------------------------------------------------------

TEST(Audit, HonestInitsAreNeverRefusedAcross120Seeds) {
  obs::Registry::global().reset();
  const auto auditor = attack::make_model_auditor();
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    common::Rng rng(seed);
    auto model = nn::make_attack_host(kSpec, kNeurons, kClasses, rng);
    EXPECT_NO_THROW(auditor(*model, /*round=*/seed)) << "seed " << seed;
  }
  EXPECT_EQ(counter_value("fl.audit.inspected"), 120u);
  EXPECT_EQ(counter_value("fl.audit.refused"), 0u);
}

TEST(Audit, RefusesRtfImplant) {
  obs::Registry::global().reset();
  auto aux = tiny_dataset(4, 77);
  common::Rng rng(5);
  auto model = nn::make_attack_host(kSpec, kNeurons, kClasses, rng);
  attack::RtfAttack rtf(kSpec, kNeurons, aux);
  rtf.implant(*model);
  const auto auditor = attack::make_model_auditor();
  EXPECT_THROW(auditor(*model, 0), AuditError);
  EXPECT_EQ(counter_value("fl.audit.refused"), 1u);
  EXPECT_GE(counter_value("fl.audit.reject.rtf_rows"), 1u);
}

TEST(Audit, RefusesCahHalfNegativeTrapImplant) {
  obs::Registry::global().reset();
  auto aux = tiny_dataset(4, 78);
  common::Rng rng(6);
  auto model = nn::make_attack_host(kSpec, kNeurons, kClasses, rng);
  attack::CahAttack cah(kSpec, kNeurons, /*target_rate=*/0.2, aux, 0xCA11,
                        attack::CahWeightMode::kTrapHalfNegative);
  cah.implant(*model);
  const auto auditor = attack::make_model_auditor();
  EXPECT_THROW(auditor(*model, 0), AuditError);
  EXPECT_GE(counter_value("fl.audit.reject.trap_rows"), 1u);
}

TEST(Audit, SimulationProceedsWithTheRemainingCohort) {
  obs::Registry::global().reset();
  SimulationConfig sc;
  sc.clients_per_round = 0;  // all 4 clients
  sc.seed = 11;
  // Two of four clients run the audit gate.
  auto sim = make_federation(4, sc, attack::make_model_auditor(),
                             /*audited_clients=*/2);
  auto aux = tiny_dataset(4, 79);
  attack::RtfAttack rtf(kSpec, kNeurons, aux);
  rtf.implant(sim->server().global_model());
  const auto before = nn::serialize_state(sim->server().global_model());

  const auto ids = sim->run_round();
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(counter_value("fl.audit.refused"), 2u);
  EXPECT_EQ(counter_value("fl.clients_trained"), 2u);
  // The two unaudited updates committed: the model moved.
  EXPECT_NE(nn::serialize_state(sim->server().global_model()), before);
  EXPECT_EQ(sim->server().round(), 1u);
}

TEST(Audit, FullyAuditedFederationSkipsTheRoundEntirely) {
  obs::Registry::global().reset();
  SimulationConfig sc;
  sc.clients_per_round = 0;
  sc.seed = 11;
  auto sim = make_federation(4, sc, attack::make_model_auditor(),
                             /*audited_clients=*/4);
  auto aux = tiny_dataset(4, 80);
  attack::RtfAttack rtf(kSpec, kNeurons, aux);
  rtf.implant(sim->server().global_model());
  const auto before = nn::serialize_state(sim->server().global_model());

  sim->run_round();
  EXPECT_EQ(counter_value("fl.audit.refused"), 4u);
  EXPECT_EQ(counter_value("fl.clients_trained"), 0u);
  // Zero updates → the SGD step is skipped, the implant gains nothing.
  EXPECT_EQ(nn::serialize_state(sim->server().global_model()), before);
  EXPECT_EQ(sim->server().round(), 1u);

  // Quorum turns mass refusal into a typed abort instead.
  obs::Registry::global().reset();
  sc.quorum_fraction = 0.5;
  auto strict = make_federation(4, sc, attack::make_model_auditor(), 4);
  attack::RtfAttack rtf2(kSpec, kNeurons, aux);
  rtf2.implant(strict->server().global_model());
  EXPECT_THROW(strict->run_round(), QuorumError);
}

TEST(Audit, ShardedEngineExcludesRefusingClients) {
  obs::Registry::global().reset();
  VirtualPopulationConfig pc;
  pc.num_clients = 12;
  pc.seed = 21;
  pc.height = pc.width = 10;
  pc.num_classes = kClasses;
  pc.factory = host_factory(40);
  pc.auditor = attack::make_model_auditor();
  ShardedConfig sc;
  sc.cohort_size = 8;
  sc.shard_size = 3;
  sc.seed = 9;
  ShardedSimulation sim(std::make_unique<Server>(host_factory(40)(), 0.1),
                        VirtualPopulation(pc), sc);
  auto aux = tiny_dataset(4, 81);
  attack::RtfAttack rtf(kSpec, kNeurons, aux);
  rtf.implant(sim.server().global_model());
  const auto before = nn::serialize_state(sim.server().global_model());

  const index_t cohort = sim.run_round();
  EXPECT_EQ(cohort, 8u);
  EXPECT_EQ(counter_value("fl.audit.refused"), 8u);
  EXPECT_EQ(counter_value("fl.clients_trained"), 0u);
  EXPECT_EQ(nn::serialize_state(sim.server().global_model()), before);
  EXPECT_EQ(sim.server().round(), 1u);
}

TEST(Audit, SocketClientRefusesSilentlyAndServerMovesOn) {
  obs::Registry::global().reset();
  const auto data = tiny_dataset(4, 44);
  const auto shards = data.shard(2);
  auto make_core = [&](std::uint64_t id) {
    return std::make_unique<Client>(
        id, shards[id], host_factory(40), /*batch_size=*/3,
        std::make_shared<IdentityPreprocessor>(), common::Rng(600 + id));
  };
  auto honest = make_core(0);
  auto vigilant = make_core(1);
  vigilant->set_model_auditor(attack::make_model_auditor());

  Server core(host_factory(40)(), 0.1);
  auto aux = tiny_dataset(4, 82);
  attack::RtfAttack rtf(kSpec, kNeurons, aux);
  rtf.implant(core.global_model());

  net::FlServerConfig cfg;
  cfg.cohort_size = 2;
  cfg.rounds = 1;
  cfg.round_timeout_ms = 300;  // the deadline that sheds the silent refuser
  std::uint64_t t = 0;
  const net::TimeSource clock = [&t] { return t; };
  net::FlServer server(core, cfg, clock);
  server.listen("127.0.0.1", 0);

  net::FlClientConfig c0;
  c0.client_id = 0;
  net::FlClient nc0(*honest, c0, clock);
  net::FlClientConfig c1;
  c1.client_id = 1;
  net::FlClient nc1(*vigilant, c1, clock);
  nc0.connect("127.0.0.1", server.port());
  nc1.connect("127.0.0.1", server.port());

  bool done = false;
  for (int i = 0; i < 200000 && !done; ++i) {
    server.step(0);
    if (!nc0.finished()) nc0.step(0);
    if (!nc1.finished()) nc1.step(0);
    ++t;
    done = server.finished();
  }
  ASSERT_TRUE(done) << "federation hung";
  // Let the clients consume their goodbyes.
  for (int k = 0; k < 64 && !nc0.finished(); ++k) nc0.step(0);
  for (int k = 0; k < 64 && !nc1.finished(); ++k) nc1.step(0);

  EXPECT_EQ(core.round(), 1u);
  EXPECT_EQ(nc0.rounds_completed(), 1u);
  EXPECT_EQ(nc1.rounds_refused(), 1u);
  EXPECT_EQ(nc1.updates_sent(), 0u);
  EXPECT_EQ(counter_value("net.client.rounds_refused"), 1u);
  EXPECT_EQ(counter_value("fl.audit.refused"), 1u);
}

// --- Byzantine chaos ---------------------------------------------------------

FaultConfig byzantine_faults(real fraction, std::uint64_t seed) {
  FaultConfig fc;
  fc.byzantine_fraction = fraction;
  fc.byzantine_kind = ByzantineKind::kSignFlip;
  fc.byzantine_scale = 10.0;
  fc.seed = seed;
  return fc;
}

tensor::ByteBuffer run_byzantine(const AggregatorConfig& agg,
                                 const FaultConfig* faults, index_t rounds) {
  obs::Registry::global().reset();
  SimulationConfig sc;
  sc.clients_per_round = 0;  // the full 10-client cohort, every round
  sc.seed = 11;
  auto sim = make_federation(/*n_clients=*/10, sc);
  sim->server().set_aggregator(agg);
  if (faults) sim->set_fault_plan(FaultPlan(*faults));
  sim->run(rounds);
  return nn::serialize_state(sim->server().global_model());
}

real state_distance(const tensor::ByteBuffer& a, const tensor::ByteBuffer& b) {
  auto ma = host_factory(40)();
  auto mb = host_factory(40)();
  nn::deserialize_state(*ma, a);
  nn::deserialize_state(*mb, b);
  const auto pa = ma->parameters();
  const auto pb = mb->parameters();
  real sq = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (index_t j = 0; j < pa[i]->value.size(); ++j) {
      const real d = pa[i]->value[j] - pb[i]->value[j];
      sq += d * d;
    }
  }
  return std::sqrt(sq);
}

/// Attackers under the plan's persistent-membership stream, over the 10-id
/// population the federation uses.
index_t attacker_count(const FaultConfig& fc) {
  const FaultPlan plan(fc);
  index_t n = 0;
  for (std::uint64_t id = 0; id < 10; ++id) {
    if (plan.byzantine(id)) ++n;
  }
  return n;
}

TEST(ByzantineChaos, SignFlipMinorityBreaksFedAvgButNotRobustAggregators) {
  constexpr index_t kRounds = 4;
  // ε: the robust aggregators must stay this close to their own clean run.
  // Clean-vs-clean distance is 0 by construction; the margin absorbs the
  // outlier-free coordinates the attackers still shift slightly.
  constexpr real kEps = 1.0;

  for (const real fraction : {0.1, 0.3}) {
    // Seed chosen so the persistent attacker set is non-empty and a strict
    // minority (asserted, not assumed): 2 attackers at 0.1, 3 at 0.3.
    const FaultConfig fc = byzantine_faults(fraction, /*seed=*/0);
    const index_t attackers = attacker_count(fc);
    ASSERT_GE(attackers, 1u) << "fraction " << fraction;
    ASSERT_LT(attackers, 5u) << "fraction " << fraction;

    AggregatorConfig fedavg_cfg;  // kFedAvg
    AggregatorConfig median_cfg;
    median_cfg.kind = AggregatorKind::kCoordinateMedian;
    AggregatorConfig trimmed_cfg;
    trimmed_cfg.kind = AggregatorKind::kTrimmedMean;
    trimmed_cfg.trim_fraction = 0.4;  // floor(0.4·10) = 4 ≥ attackers

    for (const auto& [agg, robust] :
         std::vector<std::pair<AggregatorConfig, bool>>{
             {fedavg_cfg, false}, {median_cfg, true}, {trimmed_cfg, true}}) {
      const auto clean = run_byzantine(agg, nullptr, kRounds);
      const auto attacked = run_byzantine(agg, &fc, kRounds);
      const real dist = state_distance(clean, attacked);
      if (robust) {
        EXPECT_LT(dist, kEps)
            << to_string(agg.kind) << " drifted under " << attackers
            << " sign-flip attackers";
      } else {
        // Measured drift: ~6.1 at f=0.1 (2 attackers), ~23 at f=0.3 (3) —
        // versus ~0.35 for both robust rules. The 5ε floor sits in the gap.
        EXPECT_GT(dist, 5 * kEps)
            << "fedavg should be dragged far off by " << attackers
            << " sign-flip attackers";
      }
    }
  }
}

TEST(ByzantineChaos, ColludingDuplicatesVoteOneDirectionAndMedianHolds) {
  FaultConfig fc = byzantine_faults(0.3, /*seed=*/3);
  fc.byzantine_kind = ByzantineKind::kColludingDuplicate;
  fc.byzantine_scale = 5.0;
  ASSERT_GE(attacker_count(fc), 1u);

  AggregatorConfig median_cfg;
  median_cfg.kind = AggregatorKind::kCoordinateMedian;
  const auto clean = run_byzantine(median_cfg, nullptr, 3);
  const auto attacked = run_byzantine(median_cfg, &fc, 3);
  EXPECT_LT(state_distance(clean, attacked), 1.0);

  AggregatorConfig fedavg_cfg;
  const auto clean_avg = run_byzantine(fedavg_cfg, nullptr, 3);
  const auto attacked_avg = run_byzantine(fedavg_cfg, &fc, 3);
  EXPECT_GT(state_distance(clean_avg, attacked_avg), 1.0);
}

TEST(ByzantineChaos, ByzantineDeliveriesAreCountedAndThreadInvariant) {
  const FaultConfig fc = byzantine_faults(0.3, /*seed=*/3);
  const index_t attackers = attacker_count(fc);
  AggregatorConfig median_cfg;
  median_cfg.kind = AggregatorKind::kCoordinateMedian;

  auto run_at = [&](index_t threads) {
    runtime::set_num_threads(threads);
    obs::Registry::global().reset();
    SimulationConfig sc;
    sc.clients_per_round = 0;
    sc.seed = 11;
    auto sim = make_federation(10, sc);
    sim->server().set_aggregator(median_cfg);
    sim->set_fault_plan(FaultPlan(fc));
    sim->run(3);
    return std::pair(nn::serialize_state(sim->server().global_model()),
                     counter_value("fl.fault.byzantine"));
  };
  const auto one = run_at(1);
  const auto eight = run_at(8);
  runtime::set_num_threads(0);
  EXPECT_EQ(one.first, eight.first);
  EXPECT_EQ(one.second, eight.second);
  EXPECT_EQ(one.second, static_cast<std::uint64_t>(attackers) * 3);
}

TEST(ByzantineChaos, ShardedEngineRefusesBufferingAggregators) {
  VirtualPopulationConfig pc;
  pc.num_clients = 8;
  pc.seed = 21;
  pc.height = pc.width = 10;
  pc.num_classes = kClasses;
  pc.factory = host_factory(40);
  ShardedConfig sc;
  sc.shard_size = 4;
  AggregatorConfig median;
  median.kind = AggregatorKind::kCoordinateMedian;
  auto median_server = std::make_unique<Server>(host_factory(40)(), 0.1);
  median_server->set_aggregator(median);
  EXPECT_THROW(ShardedSimulation(std::move(median_server),
                                 VirtualPopulation(pc), sc),
               ConfigError);

  // Norm-bounded streams: same engine, same memory contract, and the clip
  // absorbs a scale-blowup attacker.
  AggregatorConfig ok;
  ok.kind = AggregatorKind::kNormBounded;
  ok.norm_bound = 1.0;
  auto ok_server = std::make_unique<Server>(host_factory(40)(), 0.1);
  ok_server->set_aggregator(ok);
  ShardedSimulation sim(std::move(ok_server), VirtualPopulation(pc), sc);
  FaultConfig fc = byzantine_faults(0.3, 3);
  fc.byzantine_kind = ByzantineKind::kScaleBlowup;
  fc.byzantine_scale = 1e3;
  sim.set_fault_plan(FaultPlan(fc));
  EXPECT_NO_THROW(sim.run(2));
  const auto params = sim.server().global_model().parameters();
  for (const auto* p : params) {
    for (index_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]));
    }
  }
}

// --- Update pipeline pin -----------------------------------------------------
//
// The committed model of a defended, faulted, single-attempt federation,
// pinned by CRC32C at 1 and 4 threads. Every transform a client applies to
// its own update (the clip, noise and mask stages, then a Byzantine or
// poison fault) and every wire corruption runs here, so a change to any of
// them, or to their order, moves the pin. The cross-engine suites cannot
// see such a change: both sides of their comparisons move together. The
// constants were recorded before the client transforms moved from the
// update's bytes onto its gradient tensors. Label "golden"; ci.sh's defense
// stage re-runs the suite under TSan.

constexpr index_t kPinClients = 10;
constexpr index_t kPinRounds = 4;

/// Replaces each sampled image with values that are exact functions of its
/// label: the synthetic generator's floats depend on compile flags, and the
/// pin must hold in the portable build too.
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

FaultConfig pipeline_faults(ByzantineKind kind) {
  FaultConfig fc;
  fc.corrupt_prob = 0.4;
  fc.poison_prob = 0.3;
  fc.byzantine_fraction = 0.2;
  fc.byzantine_kind = kind;
  fc.byzantine_scale = 3.0;
  fc.seed = 5;
  return fc;
}

/// Every corruption kind, every poison kind and at least one Byzantine
/// client among the plan's decisions for the run's (ticket, client) tuples:
/// tickets 0..kPinRounds-1, attempt 0, the full cohort every round.
void expect_plan_draws_every_fault_kind(const FaultConfig& fc) {
  const FaultPlan plan(fc);
  std::set<CorruptionKind> corruptions;
  std::set<PoisonKind> poisons;
  index_t byzantine = 0;
  for (std::uint64_t ticket = 0; ticket < kPinRounds; ++ticket) {
    for (std::uint64_t id = 0; id < kPinClients; ++id) {
      const ClientFault f = plan.decide(ticket, 0, id);
      if (f.kind == FaultKind::kCorrupt) corruptions.insert(f.corruption);
      if (f.kind == FaultKind::kPoison) poisons.insert(f.poison);
      if (f.kind == FaultKind::kByzantine) ++byzantine;
    }
  }
  ASSERT_EQ(corruptions.size(), 4u);
  ASSERT_EQ(poisons.size(), 3u);
  ASSERT_GE(byzantine, 1u);
  ASSERT_LT(byzantine, kPinClients * kPinRounds / 2);
}

std::uint32_t pipeline_model_crc(ByzantineKind kind, index_t threads) {
  runtime::set_num_threads(threads);
  SimulationConfig sc;
  sc.clients_per_round = 0;
  sc.seed = 11;
  sc.max_attempts = 1;
  const auto shards =
      tiny_dataset(/*per_class=*/8, /*seed=*/33).shard(kPinClients);
  std::vector<std::unique_ptr<Client>> clients;
  for (index_t i = 0; i < kPinClients; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], host_factory(40), /*batch_size=*/3,
        std::make_shared<LabelImages>(), common::Rng(500 + i)));
  }
  auto sim = std::make_unique<Simulation>(
      std::make_unique<Server>(host_factory(40)(), 0.1), std::move(clients),
      sc);
  // Rejects the norm-scale poison, passes the masked Byzantine updates.
  sim->server().set_validation(ValidationConfig{/*max_grad_norm=*/1e6});
  sim->set_defense_stack(parse_defense_stack("clip:1,noise:0.01,mask"));
  sim->set_fault_plan(FaultPlan(pipeline_faults(kind)));
  sim->run(kPinRounds);
  runtime::set_num_threads(0);
  // The CRC32C the serialized state seals itself with: over everything but
  // its 4-byte trailer (a CRC over `m || crc32c(m)` is a constant residue).
  const tensor::ByteBuffer state =
      nn::serialize_state(sim->server().global_model());
  return common::crc32c(state.data(), state.size() - 4);
}

// The clip's sum of squares is fused term by term at -O2 but vectorized
// without fusion at -O3, so the sanitizer builds (RelWithDebInfo) may commit
// other bytes than the Release builds the constants hold in. There the suite
// checks the thread counts against each other, which is what TSan needs.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kReleaseBytes = false;
#else
constexpr bool kReleaseBytes = true;
#endif

void expect_pinned(ByzantineKind kind, std::uint32_t want) {
  expect_plan_draws_every_fault_kind(pipeline_faults(kind));
  const std::uint32_t one = pipeline_model_crc(kind, 1);
  EXPECT_EQ(pipeline_model_crc(kind, 4), one) << "threads=4 vs 1";
  if (kReleaseBytes) {
    EXPECT_EQ(one, want);
  }
}

TEST(UpdatePipelinePin, SignFlip) {
  expect_pinned(ByzantineKind::kSignFlip, 0x642099CBu);
}

TEST(UpdatePipelinePin, ScaleBlowup) {
  expect_pinned(ByzantineKind::kScaleBlowup, 0x6382D01Fu);
}

TEST(UpdatePipelinePin, ColludingDuplicate) {
  expect_pinned(ByzantineKind::kColludingDuplicate, 0x164827DCu);
}

}  // namespace
}  // namespace oasis::fl
