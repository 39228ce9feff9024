// Lazy virtual client populations for million-scale federations.
//
// A VirtualPopulation is a DESCRIPTION of N federated clients, not N live
// objects: make_client(id) materializes client `id` on demand as a pure
// function of (population config, id). Every stochastic ingredient — the
// client's local synthetic dataset, its model replica, its per-round batch
// sampling — derives from fresh split streams keyed on the population seed
// and the client id (the fl::FaultPlan idiom), so materializing a client
// twice, in any order, on any thread, yields byte-identical behaviour.
//
// This is what lets the round loop's sharded driver (fl/shard.h) run a
// round over 10^6 clients in O(shard) memory: clients exist only while their
// shard is in flight. materialize() builds the whole population as regular
// fl::Simulation clients — the differential shard tests run the round loop
// under both drivers over the SAME population description and compare bytes.
//
// Purity requirements on the config:
//   * `factory` must be pure (no captured mutable state such as a shared
//     init RNG) — it is invoked from pool workers, possibly concurrently.
//   * `preprocessor` is shared across all clients and must be stateless
//     (the BatchPreprocessor contract already requires const process()).
// Clients are created in ROUND-KEYED rng mode (Client::set_round_keyed_rng)
// so they carry no cross-round state.
#pragma once

#include <memory>
#include <vector>

#include "data/synthetic.h"
#include "fl/client.h"

namespace oasis::fl {

/// Describes a population of `num_clients` virtual clients. All per-client
/// randomness derives from `seed`; two configs differing only in
/// num_clients agree on every client id both contain.
struct VirtualPopulationConfig {
  index_t num_clients = 0;
  std::uint64_t seed = 7;

  // --- Local dataset shape (per-client synthetic data) ---
  index_t num_classes = 10;
  index_t height = 16;
  index_t width = 16;
  /// Local examples per client; labels cycle over (id + k) % num_classes so
  /// the population is non-IID in a deterministic, id-derived way.
  index_t examples_per_client = 8;
  index_t batch_size = 4;

  // --- Training configuration shared by every client ---
  ModelFactory factory;          // must be PURE — see file comment
  PreprocessorPtr preprocessor;  // nullptr → IdentityPreprocessor
  /// Model-audit gate installed on every materialized client (see
  /// Client::set_model_auditor). Must be pure/stateless for the same reason
  /// as `factory` — it runs on pool workers, possibly concurrently. Empty =
  /// no audit.
  ModelAuditor auditor;
};

class VirtualPopulation {
 public:
  /// Validates the config (ConfigError on num_clients == 0, factory == null,
  /// batch_size outside [1, examples_per_client], num_classes == 0).
  explicit VirtualPopulation(VirtualPopulationConfig config);

  [[nodiscard]] index_t size() const { return config_.num_clients; }
  [[nodiscard]] const VirtualPopulationConfig& config() const {
    return config_;
  }

  /// Materializes virtual client `id` — a pure function of (config, id);
  /// safe to call concurrently from pool workers. OASIS_CHECK on
  /// id >= num_clients.
  [[nodiscard]] std::unique_ptr<Client> make_client(std::uint64_t id) const;

  /// Materializes ALL clients in id order — the differential tests feed this
  /// to fl::Simulation as the byte-exact reference for the sharded engine.
  [[nodiscard]] std::vector<std::unique_ptr<Client>> materialize() const;

 private:
  VirtualPopulationConfig config_;
  data::SynthConfig synth_;  // derived from config_ once
};

}  // namespace oasis::fl
