// Defense matrix (PR-10 robustness surface, not a paper figure): the
// {none, RTF, CAH} attack axis crossed with composable defense stacks.
//
// Every cell answers two questions at once:
//
//   PSNR     — how well does the dishonest server reconstruct the victim's
//              batch through this defense stack? (the privacy axis; absent
//              for the honest "none" attack, which reconstructs nothing)
//   accuracy — what does the SAME stack cost an honest federation's global
//              model? (the utility axis, measured once per stack since
//              honest training never sees the implant)
//
// The paper's qualitative shape: OASIS collapses reconstructions at a small
// accuracy cost; clip+noise (the DP composition) also degrades PSNR but
// charges utility directly through the gradients. The grid lands in
// bench_out/ as CSV + JSON via the standard ExperimentReport path.
#include <iomanip>
#include <iostream>
#include <memory>

#include "attack/cah.h"
#include "attack/recon_eval.h"
#include "attack/rtf.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/oasis.h"
#include "fl/client_step.h"
#include "fl/defense.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "nn/models.h"
#include "runtime/parallel.h"

namespace {

using namespace oasis;
using namespace oasis::bench;

constexpr index_t kNeurons = 48;
constexpr index_t kBatch = 8;

/// One grid row: its label, the parsed update stack, and the clients'
/// preprocessor (OASIS MR when the row is OASIS-defended).
struct DefenseRow {
  std::string spec;
  std::shared_ptr<fl::DefenseStack> stack;
  fl::PreprocessorPtr preprocessor;
};

DefenseRow make_defense_row(const std::string& label,
                            const std::string& stack_spec, bool oasis) {
  DefenseRow row;
  row.spec = label;
  row.stack = fl::parse_defense_stack(stack_spec);
  row.preprocessor = core::make_preprocessor(
      oasis ? std::vector<augment::TransformKind>{
                  augment::TransformKind::kMajorRotation}
            : std::vector<augment::TransformKind>{});
  return row;
}

/// Reconstruction quality through one defense stack: a dishonest server
/// implants `atk` into the dispatched model, the single victim trains one
/// batch per round, and the stack defends the update before the server ever
/// sees it — through the client step every round engine uses.
std::vector<real> attack_psnr(attack::ActiveAttack& atk,
                              const fl::ModelFactory& factory,
                              const data::InMemoryDataset& victim_pool,
                              const DefenseRow& defense, index_t rounds,
                              std::uint64_t seed) {
  fl::MaliciousServer server(factory(), 1e-3, atk.manipulator());
  fl::Client victim(0, victim_pool, factory, kBatch, defense.preprocessor,
                    common::Rng(seed));
  const std::vector<std::uint64_t> cohort{0};

  std::vector<real> psnr;
  for (index_t round = 0; round < rounds; ++round) {
    server.begin_round();
    auto update = *fl::run_client_round(victim, server.dispatch_to(0),
                                        {defense.stack.get(), cohort});
    const auto candidates =
        atk.reconstruct(tensor::deserialize_tensors(update.gradients));
    const auto originals =
        data::unstack_images(victim.last_raw_batch().images);
    for (const auto& s : attack::best_match_psnr(candidates, originals)) {
      psnr.push_back(s.best_psnr);
    }
    std::vector<fl::ClientUpdateMessage> updates;
    updates.push_back(std::move(update));
    server.finish_round(updates);
  }
  return psnr;
}

/// Utility cost of one defense stack: an honest 4-client federation trains
/// with the stack installed (clip/noise land on every uploaded update, an
/// OASIS row sets the clients' preprocessor) and the global model is
/// scored on the held-out test split.
real honest_accuracy(const fl::ModelFactory& factory,
                     const data::InMemoryDataset& train,
                     const data::InMemoryDataset& test,
                     const DefenseRow& defense, index_t rounds,
                     std::uint64_t seed) {
  const index_t num_clients = 4;
  const auto shards = train.shard(num_clients);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < num_clients; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        i, shards[i], factory, /*batch_size=*/16, defense.preprocessor,
        common::Rng(seed + 31 * i)));
  }
  auto server = std::make_unique<fl::Server>(factory(), /*learning_rate=*/0.1);
  fl::SimulationConfig config;
  config.seed = seed ^ 0xACC;
  fl::Simulation sim(std::move(server), std::move(clients), config);
  sim.set_defense_stack(defense.stack);
  sim.run(rounds);
  return metrics::accuracy(sim.server().global_model(), test);
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("defense_matrix",
                        "{none, RTF, CAH} attack x defense-stack grid "
                        "(PSNR + honest accuracy)");
  cli.add_bool("full", "more rounds and attack batches");
  cli.add_flag("seed", "experiment seed", "424");
  runtime::add_cli_flag(cli);
  bench::add_metrics_flag(cli);
  cli.parse(argc, argv);
  const bench::MetricsExport metrics_export(cli);
  runtime::apply_cli_flag(cli);
  const bool full = cli.get_bool("full");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const index_t attack_rounds = full ? 6 : 2;
  const index_t train_rounds = full ? 150 : 50;

  print_banner("Defense matrix",
               "attack x defense-stack grid: reconstruction PSNR vs honest "
               "global-model accuracy");
  common::Stopwatch total;

  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.height = cfg.width = 16;
  cfg.num_classes = 6;
  cfg.train_per_class = 24;
  cfg.test_per_class = 8;
  const auto ds = data::generate(cfg);
  cfg.seed ^= 0xA0;
  cfg.test_per_class = 0;
  const auto aux = data::generate(cfg).train;

  const auto& shape = ds.train.image_shape();
  const nn::ImageSpec spec{shape[0], shape[1], shape[2]};
  common::Rng model_rng(seed ^ 0x90DE1);
  const fl::ModelFactory factory = [&] {
    return nn::make_attack_host(spec, kNeurons, cfg.num_classes, model_rng);
  };

  struct RowSpec {
    const char* label;
    const char* stack;
    bool oasis;
  };
  const RowSpec kRows[] = {
      {"none", "none", false},
      {"clip:5", "clip:5", false},
      {"clip:5,noise:0.01", "clip:5,noise:0.01", false},
      {"oasis", "none", true},
      {"clip:5,noise:0.01,oasis", "clip:5,noise:0.01", true},
  };

  metrics::ExperimentReport report("defense_matrix");
  std::cout << "\n"
            << std::left << std::setw(26) << "defense stack" << std::right
            << std::setw(14) << "accuracy(%)" << std::setw(14) << "RTF PSNR"
            << std::setw(14) << "CAH PSNR" << "\n";
  for (const RowSpec& r : kRows) {
    const auto defense = make_defense_row(r.label, r.stack, r.oasis);

    // The honest ("none" attack) cell: utility only.
    const real acc =
        honest_accuracy(factory, ds.train, ds.test, defense, train_rounds,
                        seed);
    report.begin_row();
    report.add("attack", std::string("none"));
    report.add("defense", defense.spec);
    report.add("accuracy", acc);

    // The attacked cells: same stack, dishonest server.
    real mean_psnr[2] = {0.0, 0.0};
    {
      attack::RtfAttack rtf(spec, kNeurons, aux);
      const auto psnr = attack_psnr(rtf, factory, ds.train, defense,
                                    attack_rounds, seed + 1);
      const auto stats = metrics::box_stats(psnr);
      mean_psnr[0] = stats.mean;
      report.begin_row();
      report.add("attack", std::string("rtf"));
      report.add("defense", defense.spec);
      report.add("mean_psnr", stats.mean);
      report.add("median_psnr", stats.median);
      report.add("max_psnr", stats.max);
      report.add("accuracy", acc);
    }
    {
      attack::CahAttack cah(spec, kNeurons, 1.0 / kBatch, aux,
                            seed ^ 0xCA11);
      const auto psnr = attack_psnr(cah, factory, ds.train, defense,
                                    attack_rounds, seed + 2);
      const auto stats = metrics::box_stats(psnr);
      mean_psnr[1] = stats.mean;
      report.begin_row();
      report.add("attack", std::string("cah"));
      report.add("defense", defense.spec);
      report.add("mean_psnr", stats.mean);
      report.add("median_psnr", stats.median);
      report.add("max_psnr", stats.max);
      report.add("accuracy", acc);
    }

    std::cout << std::left << std::setw(26) << defense.spec << std::right
              << std::fixed << std::setw(14) << std::setprecision(1)
              << acc * 100.0 << std::setw(14) << std::setprecision(2)
              << mean_psnr[0] << std::setw(14) << mean_psnr[1] << "\n";
  }
  flush_report(report);
  std::cout << "\n[defense_matrix] total " << total.seconds() << " s\n";
  return 0;
}
