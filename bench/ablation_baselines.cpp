// Ablation bench (not a paper figure): the defenses the paper's Related Work
// compares OASIS against, measured head-to-head on the same pipeline.
//
// Both gradient-side baselines run as client defense-stack stages (the one
// update transform every engine applies): DP is clip:C,noise:σ·C and
// pruning is topk:<keep>.
//
//  1. DP-SGD Gaussian mechanism: PSNR of RTF reconstructions AND federated
//     model accuracy as the noise multiplier grows — reproducing the paper's
//     argument that the noise needed to blind gradient inversion destroys
//     utility, while OASIS blinds the attack at full utility.
//  2. Gradient pruning (Zhu et al.): even heavy sparsification leaves RTF
//     reconstructions recognizable.
//  3. Implant detection: RTF's imprint module is structurally conspicuous
//     (identical rows, bias ladder) while CAH's trap weights evade screening
//     — the reason "detect the malicious model" is not a general defense.
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "attack/cah.h"
#include "attack/detection.h"
#include "attack/rtf.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/oasis.h"
#include "fl/defense.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "nn/models.h"
#include "runtime/parallel.h"

namespace {

using namespace oasis;
using namespace oasis::bench;

/// Small federated training run returning final global test accuracy.
///
/// Trains the SAME architecture the attack targets (the attack host with its
/// wide first FC layer, honestly initialized): per-entry signal-to-noise of
/// a DP mechanism depends on the parameter count, so privacy and utility
/// must be measured on one model for the trade-off to be meaningful.
real federated_accuracy(const data::SynthDataset& dataset, index_t neurons,
                        fl::PreprocessorPtr preprocessor,
                        fl::DefenseStackPtr defense, index_t rounds) {
  const auto& shape = dataset.train.image_shape();
  const nn::ImageSpec spec{shape[0], shape[1], shape[2]};
  common::Rng init_rng(7);
  const index_t classes = dataset.train.num_classes();
  const fl::ModelFactory factory = [&] {
    return nn::make_attack_host(spec, neurons, classes, init_rng);
  };
  auto server = std::make_unique<fl::Server>(factory(), 0.15);
  auto* server_ptr = server.get();
  const auto shards = dataset.train.shard(4);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        i, shards[i], factory, 16, preprocessor, common::Rng(500 + i)));
  }
  fl::Simulation sim(std::move(server), std::move(clients),
                     fl::SimulationConfig{0, 3});
  sim.set_defense_stack(std::move(defense));
  sim.run(rounds);
  return metrics::accuracy(server_ptr->global_model(), dataset.test);
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("ablation_baselines",
                        "DP / pruning / detection baselines vs OASIS");
  cli.add_bool("full", "more rounds and batches");
  cli.add_flag("seed", "experiment seed", "777");
  runtime::add_cli_flag(cli);
  bench::add_metrics_flag(cli);
  cli.parse(argc, argv);
  const bench::MetricsExport metrics_export(cli);
  runtime::apply_cli_flag(cli);
  const bool full = cli.get_bool("full");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  print_banner("Ablation", "baseline defenses (Related Work) vs OASIS");
  common::Stopwatch total;

  const index_t num_batches = full ? 8 : 3;
  // One matched setting for privacy AND utility: 24×24 inputs, n=300
  // attacked neurons, the same attack-host architecture throughout.
  const index_t neurons = 300;
  data::SynthConfig d_cfg = data::synth_imagenet_config();
  d_cfg.height = d_cfg.width = 24;
  d_cfg.train_per_class = 24;
  d_cfg.test_per_class = 8;
  const data::SynthDataset train_data = data::generate(d_cfg);
  d_cfg.seed ^= 0xABBA;
  d_cfg.test_per_class = 0;
  const data::InMemoryDataset aux = data::generate(d_cfg).train;
  const index_t rounds = full ? 400 : 200;

  std::cout << "\n--- privacy vs utility: RTF (B=8, n=" << neurons
            << ") reconstruction PSNR and federated accuracy on the SAME "
               "model ---\n"
            << std::left << std::setw(26) << "defense" << std::right
            << std::setw(16) << "mean PSNR (dB)" << std::setw(16)
            << "fed accuracy(%)" << "\n";

  const auto report = [&](const std::string& label,
                          std::vector<augment::TransformKind> transforms,
                          fl::DefenseStackPtr defense) {
    core::AttackExperimentConfig cfg;
    cfg.attack = core::AttackKind::kRtf;
    cfg.batch_size = 8;
    cfg.neurons = neurons;
    cfg.num_batches = num_batches;
    cfg.classes = train_data.train.num_classes();
    cfg.transforms = transforms;
    cfg.defense = defense;
    cfg.seed = seed;
    const auto result =
        core::run_attack_experiment(train_data.train, aux, cfg);
    const real acc = federated_accuracy(
        train_data, neurons, core::make_preprocessor(transforms),
        defense, rounds);
    std::cout << std::left << std::setw(26) << label << std::right
              << std::setw(16) << std::fixed << std::setprecision(1)
              << result.mean_psnr() << std::setw(16) << acc * 100.0 << "\n";
  };

  report("undefended", {}, nullptr);
  report("OASIS (MR)", {augment::TransformKind::kMajorRotation}, nullptr);
  for (const real sigma : {1e-4, 1e-3, 1e-2}) {
    std::ostringstream label, spec;
    label << "DP (C=1, sigma=" << sigma << ")";
    spec << "clip:1,noise:" << sigma;
    report(label.str(), {}, fl::parse_defense_stack(spec.str(), seed));
  }

  // 1b. Replay averaging: the dishonest server re-dispatches the SAME
  // malicious model for T rounds; a victim whose whole local dataset fits in
  // one batch recomputes the SAME gradients each round, so averaging the T
  // uploads shrinks the DP noise by √T and the reconstruction returns. OASIS
  // has no such failure mode — its protection is structural, not stochastic.
  std::cout << "\n--- active replay averaging defeats DP noise "
               "(DP C=1 sigma=0.001, RTF, victim batch = full local data) "
               "---\n"
            << std::left << std::setw(20) << "averaged rounds" << std::right
            << std::setw(16) << "mean PSNR (dB)" << "\n";
  {
    const auto& shape = train_data.train.image_shape();
    const nn::ImageSpec spec{shape[0], shape[1], shape[2]};
    const index_t classes = train_data.train.num_classes();
    // Victim holds exactly 8 images (its full batch every round).
    std::vector<index_t> few{0, 25, 50, 75, 100, 125, 150, 175};
    const data::InMemoryDataset local = train_data.train.subset(few);

    attack::RtfAttack rtf(spec, neurons, aux);
    common::Rng model_rng(seed ^ 0x99);
    const fl::ModelFactory factory = [&] {
      return nn::make_attack_host(spec, neurons, classes, model_rng);
    };
    auto server = std::make_unique<fl::MaliciousServer>(
        factory(), 1e-6, rtf.manipulator());  // ~frozen model across rounds
    auto* server_ptr = server.get();
    std::vector<std::unique_ptr<fl::Client>> clients;
    clients.push_back(std::make_unique<fl::Client>(
        0, local, factory, /*batch_size=*/8,
        std::make_shared<fl::IdentityPreprocessor>(),
        common::Rng(seed ^ 0x55)));
    fl::Simulation sim(std::move(server), std::move(clients),
                       fl::SimulationConfig{1, seed});
    sim.set_defense_stack(fl::parse_defense_stack("clip:1,noise:0.001", seed));

    const index_t max_rounds = full ? 1024 : 256;
    std::vector<tensor::Tensor> sum;
    index_t done = 0;
    const auto originals = [&] {
      std::vector<index_t> all{0, 1, 2, 3, 4, 5, 6, 7};
      return data::unstack_images(data::gather(local, all).images);
    }();
    for (index_t target : {index_t{1}, index_t{16}, max_rounds}) {
      while (done < target) {
        sim.run_round();
        auto grads = tensor::deserialize_tensors(
            server_ptr->captured().back().gradients);
        if (sum.empty()) {
          sum = std::move(grads);
        } else {
          for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += grads[i];
        }
        ++done;
      }
      auto averaged = sum;
      for (auto& t : averaged) t /= static_cast<real>(done);
      const auto scores =
          attack::best_match_psnr(rtf.reconstruct(averaged), originals);
      real mean = 0.0;
      for (const auto& s : scores) mean += s.best_psnr;
      mean /= static_cast<real>(scores.size());
      std::cout << std::left << std::setw(20) << done << std::right
                << std::setw(16) << std::fixed << std::setprecision(1)
                << mean << "\n";
    }
  }

  std::cout << "\n--- gradient pruning vs CAH (the per-neuron inversion the "
               "paper's citation evaluates): PSNR vs kept fraction ---\n"
            << metrics::box_row_header("keep fraction") << "\n";
  for (const real keep : {1.0, 0.5, 0.1, 0.01}) {
    core::AttackExperimentConfig cfg;
    cfg.attack = core::AttackKind::kCah;
    cfg.batch_size = 8;
    cfg.neurons = 100;
    cfg.num_batches = num_batches;
    cfg.classes = train_data.train.num_classes();
    cfg.seed = seed;
    if (keep < 1.0) {
      cfg.defense =
          fl::parse_defense_stack("topk:" + std::to_string(keep), seed);
    }
    const auto result =
        core::run_attack_experiment(train_data.train, aux, cfg);
    std::cout << metrics::format_box_row(
                     "keep=" + std::to_string(keep).substr(0, 4),
                     metrics::box_stats(result.per_image_psnr))
              << "\n";
  }

  std::cout << "\n--- implant detection (first-Dense inspection) ---\n"
            << std::left << std::setw(16) << "model" << std::right
            << std::setw(18) << "row duplication" << std::setw(18)
            << "bias monotonic" << std::setw(14) << "suspicious" << "\n";
  {
    const auto& shape = train_data.train.image_shape();
    const nn::ImageSpec spec{shape[0], shape[1], shape[2]};
    common::Rng rng(seed);
    const auto show = [&](const std::string& label, nn::Sequential& model) {
      const auto rep = attack::inspect_first_dense(model);
      std::cout << std::left << std::setw(16) << label << std::right
                << std::setw(18) << std::setprecision(3) << rep.row_duplication
                << std::setw(18) << rep.bias_monotonicity << std::setw(14)
                << (rep.suspicious() ? "YES" : "no") << "\n";
    };
    auto honest = nn::make_attack_host(spec, 300, train_data.train.num_classes(), rng);
    show("honest", *honest);
    attack::RtfAttack rtf(spec, 300, aux);
    auto rtf_host = nn::make_attack_host(spec, 300, train_data.train.num_classes(), rng);
    rtf.implant(*rtf_host);
    show("RTF implant", *rtf_host);
    attack::CahAttack cah(spec, 300, 0.125, aux);
    auto cah_host = nn::make_attack_host(spec, 300, train_data.train.num_classes(), rng);
    cah.implant(*cah_host);
    show("CAH implant", *cah_host);
  }

  std::cout << "\n[ablation_baselines] total " << total.seconds() << " s\n";
  return 0;
}
