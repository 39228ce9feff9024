// Ablation bench (not a paper figure): secure aggregation, its circumvention
// by a dishonest server, and OASIS's role.
//
// The paper's threat model cites Pasquini et al. (CCS 2022): secure
// aggregation does not save FL from an actively dishonest server. This bench
// makes that concrete on our stack:
//
//   1. no SecAgg, single victim            → verbatim reconstruction;
//   2. SecAgg, consistent malicious model  → the server only gets the cohort
//      aggregate, which behaves like one big batch: many images (from every
//      client!) still reconstruct — dilution, not protection;
//   3. SecAgg + model inconsistency        → only the target received a live
//      malicious layer, everyone else's implant gradients are exactly zero,
//      so the aggregate isolates the victim again;
//   4. (3) + OASIS on the clients          → reconstructions collapse to
//      unrecognizable overlaps. The defense lives in the gradients, not in
//      who can read them.
//
// --defense / --aggregator / --audit layer the PR-10 robustness surface on
// top of every row: a composable gradient defense stack on the clients, a
// robust server aggregation rule, and the model-audit gate (with the gate
// armed, clients REFUSE the implanted dispatch outright — the reconstruction
// signal disappears because no victim update is ever produced).
#include <iostream>
#include <memory>
#include <string>

#include "attack/audit.h"
#include "attack/rtf.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/oasis.h"
#include "fl/client_step.h"
#include "fl/defense.h"
#include "fl/inconsistent_server.h"
#include "metrics/stats.h"
#include "nn/models.h"
#include "runtime/parallel.h"

namespace {

using namespace oasis;
using namespace oasis::bench;

struct RoundOutcome {
  std::vector<real> victim_psnr;  // best-match PSNR per victim image
  index_t refused = 0;            // audit-gate refusals across all rounds
};

/// PR-10 robustness knobs shared by every ablation row.
struct RobustnessOptions {
  std::string defense = "none";  // client stack spec; SecAgg rows add "mask"
  fl::AggregatorConfig aggregator;
  bool audit = false;            // arm the model-audit gate on every client
};

/// Runs `rounds` attack rounds over a 4-client cohort and scores the
/// reconstruction of the victim's (client 0) batches.
RoundOutcome run_cohort(const data::InMemoryDataset& pool,
                        const data::InMemoryDataset& aux, index_t neurons,
                        bool use_secagg, bool inconsistent, bool oasis,
                        index_t rounds, std::uint64_t seed,
                        const RobustnessOptions& robust) {
  const auto& shape = pool.image_shape();
  const nn::ImageSpec spec{shape[0], shape[1], shape[2]};
  const index_t classes = pool.num_classes();
  const index_t cohort_size = 4;

  attack::RtfAttack atk(spec, neurons, aux);
  common::Rng model_rng(seed ^ 0x31337);
  const fl::ModelFactory factory = [&] {
    return nn::make_attack_host(spec, neurons, classes, model_rng);
  };

  std::unique_ptr<fl::MaliciousServer> server;
  if (inconsistent) {
    server = std::make_unique<fl::InconsistentMaliciousServer>(
        factory(), 1e-3, atk.manipulator(), /*target=*/0);
  } else {
    server = std::make_unique<fl::MaliciousServer>(factory(), 1e-3,
                                                   atk.manipulator());
  }

  const auto preprocessor = core::make_preprocessor(
      oasis ? std::vector<augment::TransformKind>{
                  augment::TransformKind::kMajorRotation}
            : std::vector<augment::TransformKind>{});
  const auto shards = pool.shard(cohort_size);
  std::vector<std::unique_ptr<fl::Client>> clients;
  std::vector<std::uint64_t> cohort_ids;
  if (robust.aggregator.kind != fl::AggregatorKind::kFedAvg) {
    server->set_aggregator(robust.aggregator);
  }
  for (index_t i = 0; i < cohort_size; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        i, shards[i], factory, /*batch_size=*/8, preprocessor,
        common::Rng(seed + 17 * i)));
    if (robust.audit) {
      clients[i]->set_model_auditor(attack::make_model_auditor());
    }
    cohort_ids.push_back(i);
  }

  // The clients' own stack, with SecAgg's pairwise mask as its last stage:
  // the shared client step runs it on the gradients before the upload is
  // serialized, as every round engine does.
  const auto stack = fl::parse_defense_stack(robust.defense);
  if (use_secagg) stack->add(std::make_unique<fl::SecAggMaskDefense>());

  RoundOutcome outcome;
  for (index_t round = 0; round < rounds; ++round) {
    server->begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    bool victim_refused = false;
    for (index_t i = 0; i < cohort_size; ++i) {
      auto update = fl::run_client_round(*clients[i], server->dispatch_to(i),
                                         {stack.get(), cohort_ids});
      if (!update) {
        // The audit gate spotted the implant: this client sits the round
        // out, exactly as in the round engines.
        ++outcome.refused;
        if (i == 0) victim_refused = true;
        continue;
      }
      updates.push_back(std::move(*update));
    }

    // What the server can invert: the single victim update without SecAgg,
    // otherwise only the cohort SUM (masks cancel there). A refused victim
    // leaves nothing to invert at all.
    std::vector<tensor::Tensor> grads;
    if (!use_secagg) {
      if (!victim_refused && !updates.empty()) {
        grads = tensor::deserialize_tensors(updates[0].gradients);
      }
    } else {
      for (const auto& update : updates) {
        auto tensors = tensor::deserialize_tensors(update.gradients);
        if (grads.empty()) {
          grads = std::move(tensors);
        } else {
          for (std::size_t i = 0; i < grads.size(); ++i) {
            grads[i] += tensors[i];
          }
        }
      }
    }

    if (!grads.empty() && !victim_refused) {
      const auto candidates = atk.reconstruct(grads);
      const auto originals =
          data::unstack_images(clients[0]->last_raw_batch().images);
      for (const auto& s : attack::best_match_psnr(candidates, originals)) {
        outcome.victim_psnr.push_back(s.best_psnr);
      }
    }
    // A fully vigilant cohort can refuse the whole round; the round engines
    // commit a skipped round in that case, and so do we.
    if (!updates.empty()) server->finish_round(updates);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "ablation_secagg",
      "secure aggregation, model inconsistency, and OASIS");
  cli.add_bool("full", "more rounds");
  cli.add_flag("seed", "experiment seed", "888");
  cli.add_flag("defense", "client defense stack, e.g. clip:10,noise:0.01",
               "none");
  cli.add_flag("aggregator", "fedavg|median|trimmed[:f]|normbound[:b]",
               "fedavg");
  cli.add_bool("audit", "arm the model-audit gate on every client");
  runtime::add_cli_flag(cli);
  bench::add_metrics_flag(cli);
  cli.parse(argc, argv);
  const bench::MetricsExport metrics_export(cli);
  runtime::apply_cli_flag(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const index_t rounds = cli.get_bool("full") ? 8 : 3;

  RobustnessOptions robust;
  robust.defense = cli.get("defense");
  robust.aggregator = fl::parse_aggregator(cli.get("aggregator"));
  robust.audit = cli.get_bool("audit");

  print_banner("Ablation",
               "secure aggregation vs the dishonest server (RTF, B=8, "
               "4-client cohort)");
  common::Stopwatch total;

  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.height = cfg.width = 32;
  cfg.train_per_class = 16;
  cfg.test_per_class = 0;
  const auto pool = data::generate(cfg).train;
  cfg.seed ^= 0x5EC;
  const auto aux = data::generate(cfg).train;
  // Few bins relative to the cohort's total samples, so honest aggregation
  // genuinely dilutes (32 samples in 100 bins collide); inconsistency then
  // shows its value by emptying the bins of everyone but the target.
  const index_t neurons = 48;

  std::cout << "\nvictim-image reconstruction quality (PSNR dB):\n"
            << metrics::box_row_header("setting") << "\n";
  const struct {
    const char* label;
    bool secagg, inconsistent, oasis;
  } rows[] = {
      {"no SecAgg", false, false, false},
      {"SecAgg, consistent", true, false, false},
      {"SecAgg + inconsistency", true, true, false},
      {"  ... + OASIS(MR)", true, true, true},
  };
  index_t total_refused = 0;
  for (const auto& row : rows) {
    const auto outcome =
        run_cohort(pool, aux, neurons, row.secagg, row.inconsistent,
                   row.oasis, rounds, seed, robust);
    total_refused += outcome.refused;
    if (outcome.victim_psnr.empty()) {
      // The audit gate refused every dispatch: there is no reconstruction
      // to score, which IS the result.
      std::cout << row.label << ": no victim update produced ("
                << outcome.refused << " refusals)\n";
    } else {
      std::cout << metrics::format_box_row(
                       row.label, metrics::box_stats(outcome.victim_psnr))
                << "\n";
    }
  }
  if (robust.audit) {
    std::cout << "audit gate: " << total_refused
              << " dispatches refused across all rows (refused rounds "
                 "produce no victim update to reconstruct)\n";
  }
  std::cout << "\n[ablation_secagg] total " << total.seconds() << " s\n";
  return 0;
}
