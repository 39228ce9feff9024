// FL simulator tests: message round trips, FedAvg arithmetic, client
// gradient correctness, honest/malicious server behaviour, full rounds.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "data/synthetic.h"
#include "fl/aggregation.h"
#include "fl/client.h"
#include "fl/client_step.h"
#include "fl/defense.h"
#include "fl/round_core.h"
#include "fl/server.h"
#include "fl/simulation.h"
#include "nn/dense.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace oasis::fl {
namespace {

data::InMemoryDataset tiny_dataset(index_t n, index_t classes,
                                   std::uint64_t seed) {
  data::SynthConfig cfg;
  cfg.num_classes = classes;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = n;
  cfg.test_per_class = 0;
  cfg.seed = seed;
  return data::generate(cfg).train;
}

ModelFactory tiny_factory(std::uint64_t seed) {
  return [seed] {
    common::Rng rng(seed);
    return nn::make_mlp({3, 8, 8}, {16}, 4, rng);
  };
}

TEST(Aggregation, UnweightedMeanOfTwoUpdates) {
  FedAvgAccumulator acc;
  acc.add({tensor::Tensor({2}, {2.0, 4.0})}, 1.0);
  acc.add({tensor::Tensor({2}, {4.0, 8.0})}, 1.0);
  const auto avg = acc.average();
  ASSERT_EQ(avg.size(), 1u);
  EXPECT_DOUBLE_EQ(avg[0][0], 3.0);
  EXPECT_DOUBLE_EQ(avg[0][1], 6.0);
}

TEST(Aggregation, ExampleWeightedMean) {
  ClientUpdateMessage a, b;
  a.num_examples = 3;
  b.num_examples = 1;
  a.gradients = tensor::serialize_tensors({tensor::Tensor({1}, {4.0})});
  b.gradients = tensor::serialize_tensors({tensor::Tensor({1}, {8.0})});
  FedAvgAccumulator acc;
  acc.add(a);
  acc.add(b);
  EXPECT_DOUBLE_EQ(acc.average()[0][0], (3.0 * 4.0 + 8.0) / 4.0);
}

TEST(Aggregation, RejectsEmptyAndMismatched) {
  EXPECT_THROW((void)FedAvgAccumulator{}.average(), Error);

  ClientUpdateMessage a, b;
  a.num_examples = b.num_examples = 1;
  a.gradients = tensor::serialize_tensors({tensor::Tensor({2})});
  b.gradients =
      tensor::serialize_tensors({tensor::Tensor({2}), tensor::Tensor({2})});
  FedAvgAccumulator acc;
  acc.add(a);
  EXPECT_THROW(acc.add(b), Error);
}

// kernel.crc32c.calls counts every CRC32C pass tensor/serialize makes.
// One accepted update costs the server one pass (its screen: the fold
// reads the screened bytes in place), a model-state load costs one, and a
// client round two (the load, then its upload's trailer), defended or not:
// the stack runs on the gradient tensors before the one serialization. The
// message-level accumulator, which has no screen before it, verifies once.
TEST(KernelCounts, OneCrcPassPerScreenedUpdateAndPerStateLoad) {
  struct MetricsGuard {
    ~MetricsGuard() { obs::set_kernel_metrics(false); }
  } guard;
  obs::set_kernel_metrics(true);
  obs::Counter& crcs = obs::counter("kernel.crc32c.calls");
  Server server(tiny_factory(21)(), /*learning_rate=*/0.1);
  Client client(0, tiny_dataset(6, 4, 11), tiny_factory(5), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(42));
  const GlobalModelMessage& msg = server.begin_round();

  crcs.reset();
  const ClientUpdateMessage update = client.handle_round(msg);
  EXPECT_EQ(crcs.value(), 2u) << "client round";

  // A clip small enough to bite: the stage and its tallies run exactly
  // once, and no pass is added for decoding or re-encoding the update.
  const auto clip = parse_defense_stack("clip:0.001");
  std::map<std::string, std::uint64_t> tallied;
  for (const auto& [name, value] : obs::Registry::global().counters()) {
    if (name.rfind("fl.defense.", 0) == 0) tallied[name] = value;
  }
  crcs.reset();
  ASSERT_TRUE(run_client_round(client, msg, {clip.get()}).has_value());
  EXPECT_EQ(crcs.value(), 2u) << "clip-defended client round";
  for (const char* name :
       {"fl.defense.applied", "fl.defense.clip", "fl.defense.clip.active"}) {
    EXPECT_EQ(obs::counter(name).value(), tallied[name] + 1) << name;
  }

  RoundCore core(server);
  crcs.reset();
  EXPECT_EQ(core.offer(update), RejectReason::kAccepted);
  EXPECT_EQ(crcs.value(), 1u) << "screen + fold of one accepted update";

  crcs.reset();
  FedAvgAccumulator acc;
  acc.add(update);
  EXPECT_EQ(crcs.value(), 1u) << "message-level fold";

  auto replica = tiny_factory(5)();
  crcs.reset();
  nn::deserialize_state(*replica, msg.model_state);
  EXPECT_EQ(crcs.value(), 1u) << "model-state load";
  EXPECT_TRUE(core.close(0));
}

TEST(Client, UpdateMatchesDirectGradientComputation) {
  // A client round must produce exactly the gradients of one forward/backward
  // on its sampled batch — verified by replaying with the same RNG.
  auto dataset = tiny_dataset(6, 4, 11);
  Client client(7, dataset, tiny_factory(5), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(42));

  auto global = tiny_factory(99)();  // a different global model state
  GlobalModelMessage msg;
  msg.round = 3;
  msg.model_state = nn::serialize_state(*global);
  const ClientUpdateMessage update = client.handle_round(msg);
  EXPECT_EQ(update.round, 3u);
  EXPECT_EQ(update.client_id, 7u);
  EXPECT_EQ(update.num_examples, 4u);

  // Replay manually.
  auto replica = tiny_factory(5)();
  nn::deserialize_state(*replica, msg.model_state);
  const data::Batch& batch = client.last_raw_batch();
  replica->zero_grad();
  nn::SoftmaxCrossEntropy loss_fn;
  const auto logits = replica->forward(batch.images, true);
  const auto loss = loss_fn.compute(logits, batch.labels);
  replica->backward(loss.grad_logits);
  const auto expected = nn::snapshot_gradients(*replica);
  const auto actual = tensor::deserialize_tensors(update.gradients);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(actual[i], expected[i]));
  }
  EXPECT_NEAR(client.last_loss(), loss.loss, 1e-12);
}

TEST(Client, UniqueLabelSamplingYieldsDistinctLabels) {
  auto dataset = tiny_dataset(5, 4, 12);
  Client client(0, dataset, tiny_factory(6), 4,
                std::make_shared<IdentityPreprocessor>(), common::Rng(1),
                BatchSampling::kUniqueLabels);
  auto global = tiny_factory(6)();
  GlobalModelMessage msg;
  msg.model_state = nn::serialize_state(*global);
  for (int round = 0; round < 5; ++round) {
    client.handle_round(msg);
    auto labels = client.last_raw_batch().labels;
    std::sort(labels.begin(), labels.end());
    EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                labels.end());
  }
}

TEST(Client, RejectsOversizedBatch) {
  auto dataset = tiny_dataset(1, 4, 13);  // 4 examples total
  EXPECT_THROW(Client(0, dataset, tiny_factory(6), 10,
                      std::make_shared<IdentityPreprocessor>(),
                      common::Rng(1)),
               Error);
}

TEST(Server, AppliesAveragedGradients) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), /*learning_rate=*/0.5);

  // One fake update: gradient = all ones for every parameter.
  auto ref = tiny_factory(21)();
  std::vector<tensor::Tensor> ones;
  for (auto* p : ref->parameters()) {
    ones.push_back(tensor::Tensor::full(p->value.shape(), 1.0));
  }
  ClientUpdateMessage update;
  update.num_examples = 2;
  update.gradients = tensor::serialize_tensors(ones);
  const std::vector<ClientUpdateMessage> updates{update};
  server.finish_round(updates);
  EXPECT_EQ(server.round(), 1u);

  const auto after = nn::snapshot_state(server.global_model());
  const auto params = server.global_model().parameters().size();
  for (std::size_t i = 0; i < params; ++i) {
    tensor::Tensor expected = before[i];
    expected += tensor::Tensor::full(before[i].shape(), -0.5);
    EXPECT_TRUE(tensor::allclose(after[i], expected));
  }
}

TEST(MaliciousServer, ManipulatesDispatchAndCapturesUpdates) {
  // The manipulator pins the first Dense bias to a sentinel; the dispatched
  // state must carry it, and all updates must be captured.
  auto manipulator = [](nn::Sequential& m) {
    auto* dense = dynamic_cast<nn::Dense*>(&m.at(1));
    ASSERT_NE(dense, nullptr);
    dense->bias().value.fill(-123.0);
  };
  MaliciousServer server(tiny_factory(31)(), 0.1, manipulator);
  const GlobalModelMessage msg = server.begin_round();

  auto replica = tiny_factory(31)();
  nn::deserialize_state(*replica, msg.model_state);
  auto* dense = dynamic_cast<nn::Dense*>(&replica->at(1));
  ASSERT_NE(dense, nullptr);
  EXPECT_DOUBLE_EQ(dense->bias().value[0], -123.0);

  auto dataset = tiny_dataset(4, 4, 14);
  Client client(0, dataset, tiny_factory(31), 2,
                std::make_shared<IdentityPreprocessor>(), common::Rng(2));
  const std::vector<ClientUpdateMessage> updates{client.handle_round(msg)};
  server.finish_round(updates);
  EXPECT_EQ(server.captured().size(), 1u);
  EXPECT_EQ(server.captured()[0].client_id, 0u);
}

TEST(Simulation, RunsRoundsAndSelectsClients) {
  auto dataset = tiny_dataset(6, 4, 15);
  const auto shards = dataset.shard(3);
  std::vector<std::unique_ptr<Client>> clients;
  for (index_t i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], tiny_factory(41), 3,
        std::make_shared<IdentityPreprocessor>(), common::Rng(100 + i)));
  }
  auto server = std::make_unique<Server>(tiny_factory(41)(), 0.05);
  Simulation sim(std::move(server), std::move(clients),
                 SimulationConfig{/*clients_per_round=*/2, /*seed=*/3});
  const auto ids = sim.run_round();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(sim.server().round(), 1u);
  index_t rounds_seen = 0;
  sim.run(3, [&](index_t) { ++rounds_seen; });
  EXPECT_EQ(rounds_seen, 3u);
  EXPECT_EQ(sim.server().round(), 4u);
}

TEST(Simulation, FederatedTrainingReducesLoss) {
  // End-to-end: three honest clients training a shared model must reduce the
  // average local loss over rounds.
  auto dataset = tiny_dataset(12, 4, 16);
  const auto shards = dataset.shard(3);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client*> raw;
  for (index_t i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, shards[i], tiny_factory(51), 8,
        std::make_shared<IdentityPreprocessor>(), common::Rng(200 + i)));
    raw.push_back(clients.back().get());
  }
  auto server = std::make_unique<Server>(tiny_factory(51)(), 0.25);
  Simulation sim(std::move(server), std::move(clients), SimulationConfig{});

  real early = 0.0, late = 0.0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    sim.run_round();
    real avg = 0.0;
    for (auto* c : raw) avg += c->last_loss();
    avg /= 3.0;
    if (r < 10) early += avg;
    if (r >= rounds - 10) late += avg;
  }
  EXPECT_LT(late, early * 0.8);
}

TEST(Simulation, ValidatesConfiguration) {
  auto dataset = tiny_dataset(2, 4, 17);
  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(std::make_unique<Client>(
      0, dataset, tiny_factory(61), 2,
      std::make_shared<IdentityPreprocessor>(), common::Rng(1)));
  auto server = std::make_unique<Server>(tiny_factory(61)(), 0.1);
  EXPECT_THROW(Simulation(std::move(server), std::move(clients),
                          SimulationConfig{/*clients_per_round=*/5}),
               Error);
}

ClientUpdateMessage fake_update(std::uint64_t client_id, real value,
                                std::uint64_t round = 0) {
  auto ref = tiny_factory(21)();
  std::vector<tensor::Tensor> grads;
  for (auto* p : ref->parameters()) {
    grads.push_back(tensor::Tensor::full(p->value.shape(), value));
  }
  ClientUpdateMessage u;
  u.round = round;
  u.client_id = client_id;
  u.num_examples = 1;
  u.gradients = tensor::serialize_tensors(grads);
  return u;
}

TEST(Aggregation, EmptyUpdateSetRaisesTypedError) {
  EXPECT_THROW((void)FedAvgAccumulator{}.average(), AggregationError);
  ClientUpdateMessage empty;
  empty.gradients = tensor::serialize_tensors({tensor::Tensor({2})});
  FedAvgAccumulator acc;
  EXPECT_THROW(acc.add(empty), AggregationError);  // zero examples
  EXPECT_THROW(acc.add({tensor::Tensor({2})}, 0.0), AggregationError);
  EXPECT_THROW((void)acc.average(), AggregationError);
}

TEST(Validation, RejectsEachFaultClassAndAggregatesTheRest) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), /*learning_rate=*/0.5);
  ValidationConfig vc;
  vc.max_grad_norm = 100.0;
  server.set_validation(vc);

  std::vector<ClientUpdateMessage> updates;
  updates.push_back(fake_update(0, 1.0));            // the only valid one
  updates.push_back(fake_update(1, 1.0, /*round=*/5));  // stale round id
  updates.push_back(fake_update(0, 1.0));            // duplicate client 0
  updates.push_back(fake_update(2, 1.0));
  updates.back().gradients.resize(updates.back().gradients.size() / 2 + 3);
  updates.push_back(
      fake_update(3, std::numeric_limits<real>::quiet_NaN()));
  updates.push_back(fake_update(4, 1e9));            // norm outside the band
  updates.push_back(fake_update(5, 1.0));
  updates.back().num_examples = 0;
  updates.push_back(fake_update(6, 1.0));
  updates.back().gradients =
      tensor::serialize_tensors({tensor::Tensor({2}, {1.0, 2.0})});
  // Structural damage with a fixed-up CRC: the count header claims 2^32
  // tensors but the trailer matches, so this must reach (and fail) the
  // structural walk rather than the checksum screen.
  updates.push_back(fake_update(7, 1.0));
  updates.back().gradients[0] = 0xFF;
  updates.back().gradients[4] = 0xFF;
  tensor::reseal_tensors(updates.back().gradients);

  const RoundOutcome outcome = server.finish_round(updates);
  ASSERT_EQ(outcome.reasons.size(), 9u);
  EXPECT_EQ(outcome.reasons[0], RejectReason::kAccepted);
  EXPECT_EQ(outcome.reasons[1], RejectReason::kWrongRound);
  EXPECT_EQ(outcome.reasons[2], RejectReason::kDuplicate);
  // Truncation damages the payload in flight: caught by the CRC trailer
  // check, which runs before any structural parsing.
  EXPECT_EQ(outcome.reasons[3], RejectReason::kChecksumMismatch);
  EXPECT_EQ(outcome.reasons[4], RejectReason::kNonFinite);
  EXPECT_EQ(outcome.reasons[5], RejectReason::kNormTooLarge);
  EXPECT_EQ(outcome.reasons[6], RejectReason::kZeroExamples);
  EXPECT_EQ(outcome.reasons[7], RejectReason::kShapeMismatch);
  EXPECT_EQ(outcome.reasons[8], RejectReason::kMalformed);
  EXPECT_EQ(outcome.accepted, 1u);
  EXPECT_EQ(outcome.rejected, 8u);
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(server.round(), 1u);

  // The model advanced by exactly the single valid all-ones update.
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    tensor::Tensor expected = before[i];
    expected += tensor::Tensor::full(before[i].shape(), -0.5);
    EXPECT_TRUE(tensor::allclose(after[i], expected));
  }
}

// The duplicate screen registers an id once the round id matches, before
// the payload checks run: an update rejected for its payload still claims
// its id, and only a wrong-round rejection leaves the id free. The pinned
// bytes of every engine depend on this order.
TEST(Validation, PayloadRejectionStillClaimsTheId) {
  Server server(tiny_factory(21)(), 0.5);
  std::vector<ClientUpdateMessage> updates;
  updates.push_back(fake_update(0, 1.0, /*round=*/5));  // wrong round
  updates.push_back(fake_update(0, 1.0));               // id 0 still free
  updates.push_back(fake_update(1, 1.0));
  updates.back().num_examples = 0;                      // claims id 1
  updates.push_back(fake_update(1, 1.0));
  updates.push_back(fake_update(2, 1.0));
  updates.back().gradients.pop_back();                  // claims id 2
  updates.push_back(fake_update(2, 1.0));
  const RoundOutcome outcome = server.finish_round(updates);
  EXPECT_EQ(outcome.reasons,
            (std::vector<RejectReason>{
                RejectReason::kWrongRound, RejectReason::kAccepted,
                RejectReason::kZeroExamples, RejectReason::kDuplicate,
                RejectReason::kChecksumMismatch, RejectReason::kDuplicate}));
}

TEST(Validation, AllRejectedSkipsTheSgdStep) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), 0.5);
  std::vector<ClientUpdateMessage> updates{fake_update(0, 1.0, /*round=*/9)};
  const RoundOutcome outcome = server.finish_round(updates);
  EXPECT_EQ(outcome.accepted, 0u);
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(server.round(), 1u);  // protocol still advances
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(after[i], before[i]));
  }
  // Same for a fully empty round.
  const std::vector<ClientUpdateMessage> none;
  EXPECT_FALSE(server.finish_round(none).applied);
}

TEST(Validation, UnmetQuorumThrowsBeforeTouchingTheModel) {
  auto model = tiny_factory(21)();
  const auto before = nn::snapshot_state(*model);
  Server server(std::move(model), 0.5);
  std::vector<ClientUpdateMessage> updates{fake_update(0, 1.0)};
  EXPECT_THROW(server.finish_round(updates, /*min_valid=*/2), QuorumError);
  EXPECT_EQ(server.round(), 0u);
  const auto after = nn::snapshot_state(server.global_model());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(tensor::allclose(after[i], before[i]));
  }
  // Quorum of 1 with one valid update commits.
  EXPECT_TRUE(server.finish_round(updates, /*min_valid=*/1).applied);
}

// The screen's decision for each kind of payload, with and without a norm
// bound: the reason and exactly one fl.validate.* tally per update. Σ v² is
// summed only under a bound, so the update whose Σ v² overflows to +Inf
// (finite values near 1e200) is accepted without one and rejected as
// kNormTooLarge under one.
TEST(Validation, ScreenDecisionTable) {
  const real inf = std::numeric_limits<real>::infinity();
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const auto valid = [] { return fake_update(0, 1.0); };
  const auto crc_flip = [] {
    ClientUpdateMessage u = fake_update(0, 1.0);
    u.gradients[u.gradients.size() / 2] ^= 0x10;  // a value byte
    return u;
  };
  const auto shape = [] {
    ClientUpdateMessage u = fake_update(0, 1.0);
    u.gradients = tensor::serialize_tensors({tensor::Tensor({2}, {1.0, 2.0})});
    return u;
  };
  struct Case {
    const char* name;
    std::function<ClientUpdateMessage()> make;
    RejectReason unbounded;
    RejectReason bounded;
  };
  const std::vector<Case> cases = {
      {"valid", valid, RejectReason::kAccepted, RejectReason::kAccepted},
      {"nan", [&] { return fake_update(0, nan); }, RejectReason::kNonFinite,
       RejectReason::kNonFinite},
      {"+inf", [&] { return fake_update(0, inf); }, RejectReason::kNonFinite,
       RejectReason::kNonFinite},
      {"-inf", [&] { return fake_update(0, -inf); }, RejectReason::kNonFinite,
       RejectReason::kNonFinite},
      {"shape", shape, RejectReason::kShapeMismatch,
       RejectReason::kShapeMismatch},
      {"crc flip", crc_flip, RejectReason::kChecksumMismatch,
       RejectReason::kChecksumMismatch},
      {"sum of squares overflows", [] { return fake_update(0, 1e200); },
       RejectReason::kAccepted, RejectReason::kNormTooLarge},
  };
  const std::map<RejectReason, std::string> tally = {
      {RejectReason::kAccepted, "fl.validate.accepted"},
      {RejectReason::kNonFinite, "fl.validate.reject.non_finite"},
      {RejectReason::kShapeMismatch, "fl.validate.reject.shape"},
      {RejectReason::kChecksumMismatch, "fl.validate.reject.checksum"},
      {RejectReason::kNormTooLarge, "fl.validate.reject.norm"},
  };
  const auto validate_counters = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [name, value] : obs::Registry::global().counters()) {
      if (name.rfind("fl.validate.", 0) == 0) out[name] = value;
    }
    return out;
  };

  for (const real bound : {0.0, 100.0}) {
    Server server(tiny_factory(21)(), 0.5);
    ValidationConfig vc;
    vc.max_grad_norm = bound;
    server.set_validation(vc);
    for (const Case& c : cases) {
      const RejectReason want = bound > 0.0 ? c.bounded : c.unbounded;
      UpdateScreen screen = server.begin_screen();
      const auto before = validate_counters();
      EXPECT_EQ(server.screen_update(c.make(), screen), want)
          << c.name << ", bound " << bound;
      auto expected = before;
      ++expected[tally.at(want)];
      if (want != RejectReason::kAccepted) ++expected["fl.validate.rejected"];
      auto after = validate_counters();
      // A counter first registered by this screen reads from zero.
      for (const auto& [name, value] : after) expected.try_emplace(name, 0);
      EXPECT_EQ(after, expected) << c.name << ", bound " << bound;
    }
  }
}

TEST(Simulation, RejectsDuplicateClientIds) {
  auto dataset = tiny_dataset(4, 4, 23);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<Client>(
        /*id=*/7, dataset, tiny_factory(61), 2,
        std::make_shared<IdentityPreprocessor>(), common::Rng(1)));
  }
  auto server = std::make_unique<Server>(tiny_factory(61)(), 0.1);
  EXPECT_THROW(
      Simulation(std::move(server), std::move(clients), SimulationConfig{}),
      Error);
}

TEST(Messages, MalformedModelPayloadThrows) {
  auto dataset = tiny_dataset(2, 4, 18);
  Client client(0, dataset, tiny_factory(71), 2,
                std::make_shared<IdentityPreprocessor>(), common::Rng(1));
  GlobalModelMessage msg;
  msg.model_state = {1, 2, 3};  // garbage
  EXPECT_THROW(client.handle_round(msg), SerializationError);
}

}  // namespace
}  // namespace oasis::fl
