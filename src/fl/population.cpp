#include "fl/population.h"

#include "common/error.h"

namespace oasis::fl {

namespace {

// Stream salts for the per-client derivations. Distinct constants keep the
// data stream and the (dead-on-arrival, see below) constructor rng stream
// decoupled from each other and from client_round_stream's round streams.
constexpr std::uint64_t kDataSalt = 0xDA7A;
constexpr std::uint64_t kCtorSalt = 0xC11E;

common::Rng population_stream(std::uint64_t seed, std::uint64_t salt,
                              std::uint64_t client_id) {
  // Fresh root per call: split() consumes parent state, and rebuilding the
  // parent from the seed is what makes the derivation a pure function of
  // (seed, salt, client_id) — materialization order cannot matter.
  common::Rng root(seed);
  common::Rng per_salt = root.split(salt);
  return per_salt.split(client_id);
}

}  // namespace

VirtualPopulation::VirtualPopulation(VirtualPopulationConfig config)
    : config_(std::move(config)) {
  if (config_.num_clients == 0) {
    throw ConfigError("virtual population needs at least one client");
  }
  if (config_.factory == nullptr) {
    throw ConfigError("virtual population needs a model factory");
  }
  if (config_.num_classes == 0) {
    throw ConfigError("virtual population needs at least one class");
  }
  if (config_.batch_size < 1 ||
      config_.batch_size > config_.examples_per_client) {
    throw ConfigError("virtual population batch_size " +
                      std::to_string(config_.batch_size) + " outside [1, " +
                      std::to_string(config_.examples_per_client) +
                      "] (examples_per_client)");
  }
  if (config_.preprocessor == nullptr) {
    config_.preprocessor = std::make_shared<IdentityPreprocessor>();
  }
  // One synth config shared by every client: the class palette is a function
  // of (synth seed, label), so all clients agree on what each class looks
  // like; only the per-example noise draws differ, through per-client
  // streams.
  synth_.num_classes = config_.num_classes;
  synth_.height = config_.height;
  synth_.width = config_.width;
  synth_.seed = config_.seed;
}

std::unique_ptr<Client> VirtualPopulation::make_client(std::uint64_t id) const {
  OASIS_CHECK_MSG(id < config_.num_clients,
                  "virtual client id " << id << " outside population of "
                                       << config_.num_clients);
  common::Rng data_rng = population_stream(config_.seed, kDataSalt, id);
  data::InMemoryDataset local(
      config_.num_classes,
      tensor::Shape{3, config_.height, config_.width});
  for (index_t k = 0; k < config_.examples_per_client; ++k) {
    const index_t label = (id + k) % config_.num_classes;
    local.push_back(data::generate_example(synth_, label, data_rng));
  }
  // The constructor rng is dead state in round-keyed mode (handle_round
  // re-derives before the first draw), but hand each client its own stream
  // anyway so nothing aliases if a caller ever opts out of round keying.
  auto client = std::make_unique<Client>(
      id, std::move(local), config_.factory, config_.batch_size,
      config_.preprocessor, population_stream(config_.seed, kCtorSalt, id));
  client->set_round_keyed_rng(config_.seed);
  if (config_.auditor) client->set_model_auditor(config_.auditor);
  return client;
}

std::vector<std::unique_ptr<Client>> VirtualPopulation::materialize() const {
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(config_.num_clients);
  for (index_t id = 0; id < config_.num_clients; ++id) {
    clients.push_back(make_client(id));
  }
  return clients;
}

}  // namespace oasis::fl
