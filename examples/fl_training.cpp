// Federated training with OASIS enabled end-to-end.
//
// Stands up an honest FedAvg federation of 8 clients over sharded synthetic
// data, every client defending itself with OASIS (major rotation), trains
// the global model for a number of rounds, and tracks global test accuracy —
// demonstrating that the defense is a pure client-side preprocessing step
// that leaves the protocol and convergence intact.
//
//   $ ./fl_training [--rounds 150] [--clients 8] [--transform MR]
//                   [--metrics-out metrics.json]
//
// The round engine's fault machinery is exposed too, so a lossy deployment
// can be rehearsed from the command line:
//
//   $ ./fl_training --fault-dropout 0.2 --quorum 0.5
//
// Faulty rounds that miss quorum abort with a bit-exact model rollback and
// training simply continues with the next round's cohort.
//
// The full robustness surface is on the command line too: a composable
// client-side defense stack (clip / DP noise / top-k / secagg mask),
// Byzantine-robust server aggregation, the client-side model-audit gate, and
// persistent sign-flip attackers to test them against:
//
//   $ ./fl_training --defense clip:10,noise:0.01 --audit
//                   --aggregator trimmed:0.3 --fault-byzantine 0.2
//   (one command line)
//
// Long runs can be made interruption-proof with durable checkpoints: every
// --checkpoint-every rounds the full simulation state (model, RNG streams,
// clock, obs counters) is written crash-consistently to --checkpoint-dir,
// and --resume picks the run back up from the newest valid snapshot — the
// resumed trajectory is bit-identical to one that never stopped:
//
//   $ ./fl_training --rounds 500 --checkpoint-dir ckpts --checkpoint-every 25
//   ... SIGKILL at any moment ...
//   $ ./fl_training --resume --rounds 500 --checkpoint-dir ckpts
//
// The same federation can be served over TCP instead of in-process. One
// process listens (it owns the global model), N processes connect (each owns
// one client's shard); with matching --rounds/--clients/--per-round 0 the
// final model is byte-identical to the in-process run:
//
//   $ ./fl_training --listen 7400 --clients 4 --per-round 0 --rounds 20 &
//   $ for i in 0 1 2 3; do
//       ./fl_training --connect 127.0.0.1:7400 --clients 4 --client-id $i &
//     done
//
// The serving path survives the same SIGKILL: add --checkpoint-dir and every
// accepted update is durably folded (plus a snapshot at each round
// boundary); rerunning the SAME --listen command restores the open round and
// the reconnecting clients resolve their in-flight updates via the session-
// resume handshake (see DESIGN.md §5j):
//
//   $ ckpt="--checkpoint-dir net-ckpts"
//   $ ./fl_training --listen 7400 --clients 4 --per-round 0 --rounds 20 $ckpt &
//   ... SIGKILL the server mid-round, then rerun the same command ...
//
// Million-scale federations run through the sharded streaming engine:
// --population N switches to lazily materialized virtual clients processed
// in --shard-size chunks (peak memory is O(shard), not O(N)), with
// --cohort M of them sampled per round by a stateless hash-threshold
// sampler:
//
//   $ ./fl_training --population 1000000 --cohort 100000
//                   --shard-size 512 --rounds 3    (one command line)
#include <chrono>
#include <iostream>
#include <memory>

#include "attack/audit.h"
#include "ckpt/manager.h"
#include "common/cli.h"
#include "common/error.h"
#include "core/oasis.h"
#include "data/synthetic.h"
#include "fl/defense.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "metrics/accuracy.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"

namespace {

using namespace oasis;

/// The --fault-* flags as one fault schedule (inert when every rate is 0).
fl::FaultConfig parse_faults(const common::CliParser& cli) {
  fl::FaultConfig faults;
  faults.dropout_prob = cli.get_real("fault-dropout");
  faults.straggler_prob = cli.get_real("fault-straggler");
  faults.corrupt_prob = cli.get_real("fault-corrupt");
  faults.poison_prob = cli.get_real("fault-poison");
  faults.byzantine_fraction = cli.get_real("fault-byzantine");
  faults.seed = cli.get_uint("fault-seed");
  return faults;
}

/// Opens --checkpoint-dir (null when unset) and, with --resume, restores the
/// newest valid snapshot into `engine`, passing the round it resumed at to
/// `resumed`. An empty directory starts fresh.
template <typename Engine, typename Resumed>
std::unique_ptr<ckpt::CheckpointManager> open_checkpoints(
    const common::CliParser& cli, Engine& engine, Resumed&& resumed) {
  const std::string dir = cli.get("checkpoint-dir");
  if (dir.empty()) return nullptr;
  OASIS_CHECK_MSG(cli.get_uint("checkpoint-every") >= 1,
                  "--checkpoint-every must be >= 1");
  auto manager = std::make_unique<ckpt::CheckpointManager>(
      dir, static_cast<int>(cli.get_int("checkpoint-keep")));
  if (cli.get_bool("resume")) {
    try {
      resumed(engine.resume_from(*manager));
    } catch (const CheckpointError& e) {
      if (e.reason() != CheckpointError::Reason::kNoValidGeneration) throw;
      std::cout << "no checkpoint to resume from; starting fresh\n";
    }
  }
  return manager;
}

/// Runs rounds until the protocol round reaches `target`, then `committed`
/// with the new round and run_round's result. The loop is keyed on the
/// server's round, not a counter, so a resumed process continues where its
/// snapshot left off. A round that misses quorum leaves the model untouched
/// and the next attempt draws a new cohort; attempts are bounded so a
/// pathological fault plan cannot spin forever.
template <typename Engine, typename Committed>
void run_rounds(Engine& engine, index_t target,
                ckpt::CheckpointManager* manager, std::uint64_t ckpt_every,
                Committed&& committed) {
  index_t aborted = 0;
  for (index_t attempts = 0;
       engine.server().round() < target && attempts < 2 * target;
       ++attempts) {
    try {
      const auto result = engine.run_round();
      const std::uint64_t r = engine.server().round();
      if (manager != nullptr && (r % ckpt_every == 0 || r == target)) {
        engine.save_checkpoint(*manager);
      }
      committed(r, result);
    } catch (const QuorumError& e) {
      ++aborted;
      std::cout << "round " << (engine.server().round() + 1) << ": aborted ("
                << e.what() << ")\n";
    }
  }
  if (aborted > 0) {
    std::cout << aborted << " round attempt(s) aborted on quorum\n";
  }
}

void export_metrics(const common::CliParser& cli) {
  if (const std::string path = cli.get("metrics-out"); !path.empty()) {
    obs::dump(path);
    std::cout << "[metrics] " << path << "\n" << obs::summary();
  }
}

int run(int argc, char** argv) {
  common::CliParser cli("fl_training",
                        "Honest FedAvg federation with OASIS-defended clients");
  cli.add_flag("rounds", "federated rounds", "250");
  cli.add_flag("clients", "number of clients N", "8");
  cli.add_flag("per-round", "clients selected per round M (0=all)", "4");
  cli.add_flag("transform", "OASIS transform (none|MR|mR|SH|HFlip|VFlip)",
               "MR");
  cli.add_flag("metrics-out", "write obs metrics/trace JSON to this file", "");
  cli.add_flag("fault-dropout", "per-client dropout probability", "0");
  cli.add_flag("fault-straggler", "per-client straggler probability", "0");
  cli.add_flag("fault-corrupt", "per-client payload corruption probability",
               "0");
  cli.add_flag("fault-poison", "per-client numeric poison probability", "0");
  cli.add_flag("fault-byzantine",
               "fraction of persistently Byzantine (sign-flip) clients", "0");
  cli.add_flag("fault-seed", "fault plan seed", "677200");
  cli.add_flag("defense",
               "client-side defense stack: comma-separated clip:<norm>, "
               "noise:<stddev>, topk:<keep>, mask, e.g. "
               "clip:10,noise:0.01,mask (none = disabled; OASIS is "
               "--transform)", "none");
  cli.add_flag("aggregator",
               "server aggregation rule "
               "(fedavg|median|trimmed[:f]|normbound[:b]); --population and "
               "--listen accept only fedavg|normbound[:b]", "fedavg");
  cli.add_bool("audit",
               "clients screen each dispatched model for implants and refuse "
               "suspicious rounds");
  cli.add_flag("quorum", "fraction of selected clients required to commit "
               "a round (0=disabled)", "0");
  cli.add_flag("checkpoint-dir",
               "write durable simulation snapshots to this directory", "");
  cli.add_flag("checkpoint-every", "rounds between checkpoints", "25");
  cli.add_flag("checkpoint-keep", "snapshot generations to retain", "3");
  cli.add_bool("resume",
               "resume from the newest valid snapshot in --checkpoint-dir");
  cli.add_flag("listen",
               "serve rounds over TCP on this port instead of running the "
               "in-process simulation (0 = ephemeral)", "");
  cli.add_flag("host", "address to bind (--listen) or unused otherwise",
               "127.0.0.1");
  cli.add_flag("connect",
               "join a federation at host:port as one client process", "");
  cli.add_flag("client-id", "client identity for --connect (0-based)", "0");
  cli.add_flag("population",
               "virtual clients for the sharded streaming engine "
               "(0 = materialized simulation)", "0");
  cli.add_flag("cohort",
               "cohort target per round under --population (0 = everyone)",
               "0");
  cli.add_flag("shard-size",
               "clients materialized/trained/folded per shard", "256");
  cli.add_flag("sampler", "cohort sampler under --population (hash|fy)",
               "hash");
  cli.add_flag("checkpoint-every-shards",
               "mid-round shard-boundary checkpoint cadence under "
               "--population (0 = round boundaries only)", "0");
  cli.add_flag("checkpoint-every-accepts",
               "mid-round checkpoint cadence, in folded updates, under "
               "--listen (0 = round boundaries only)", "1");
  runtime::add_cli_flag(cli);
  cli.parse(argc, argv);
  runtime::apply_cli_flag(cli);

  // Count flags go through the strict unsigned accessor: "--rounds -1" must
  // fail loudly instead of wrapping into a practically-infinite run.
  const auto rounds = static_cast<index_t>(cli.get_uint("rounds"));
  const auto n_clients = static_cast<index_t>(cli.get_uint("clients"));

  // Dataset: a 10-class task sharded across clients.
  data::SynthConfig cfg = data::synth_imagenet_config();
  cfg.height = cfg.width = 24;
  cfg.train_per_class = 24;
  cfg.test_per_class = 8;
  const data::SynthDataset dataset = data::generate(cfg);
  const auto shards = dataset.train.shard(n_clients);

  // Every client applies the same OASIS policy locally.
  const auto kind = augment::parse_transform_kind(cli.get("transform"));
  const fl::PreprocessorPtr defense = core::make_preprocessor(
      kind == augment::TransformKind::kNone
          ? std::vector<augment::TransformKind>{}
          : std::vector<augment::TransformKind>{kind});
  std::cout << "clients train with preprocessor: " << defense->name() << "\n";

  const nn::ImageSpec spec{3, cfg.height, cfg.width};
  common::Rng init_rng(7);
  const fl::ModelFactory factory = [&spec, &init_rng, &cfg] {
    return nn::make_mini_convnet(spec, cfg.num_classes, init_rng, 8);
  };

  // PR-10 robustness surface: client-side defense stack, server-side robust
  // aggregation, and the model-audit gate.
  const fl::DefenseStackPtr defense_stack =
      fl::parse_defense_stack(cli.get("defense"));
  if (!defense_stack->empty()) {
    std::cout << "defense stack: " << defense_stack->name() << "\n";
  }
  const fl::AggregatorConfig aggregator =
      fl::parse_aggregator(cli.get("aggregator"));
  const fl::ModelAuditor auditor =
      cli.get_bool("audit") ? attack::make_model_auditor() : fl::ModelAuditor{};
  if (auditor) std::cout << "model-audit gate armed on every client\n";

  if (const std::string target = cli.get("connect"); !target.empty()) {
    // Client process: one shard, one identity, rounds driven by the server.
    // Strict endpoint parse: "host:70000" or "host:7400x" must fail here
    // with a ConfigError, not connect to a silently truncated port.
    const common::HostPort endpoint = common::parse_host_port(target);
    const auto id = cli.get_uint("client-id");
    OASIS_CHECK_MSG(id < n_clients,
                    "--client-id " << id << " outside --clients " << n_clients);
    fl::Client core(id, shards[id], factory, /*batch_size=*/16, defense,
                    common::Rng(1000 + id));
    if (auditor) core.set_model_auditor(auditor);
    net::FlClientConfig client_cfg;
    client_cfg.client_id = id;
    net::FlClient client(core, client_cfg);
    if (!defense_stack->empty()) {
      // The wire protocol never announces the round's membership, so a mask
      // stage needs the static full-population cohort (valid here because
      // --per-round 0 serving dispatches to everyone).
      if (defense_stack->requires_cohort()) {
        std::vector<std::uint64_t> everyone(n_clients);
        for (index_t i = 0; i < n_clients; ++i) everyone[i] = i;
        auto owned = fl::parse_defense_stack(cli.get("defense"));
        owned->set_static_cohort(std::move(everyone));
        client.set_defense_stack(std::move(owned));
      } else {
        client.set_defense_stack(defense_stack);
      }
    }
    std::uint64_t done = 0;
    try {
      done = client.run(endpoint.host, endpoint.port);
    } catch (const net::NetError& e) {
      // The retry loop exhausted its budget against a dead endpoint (or the
      // connection died unrecoverably). Report and exit cleanly — the other
      // client processes and the server are not our problem.
      std::cerr << "client " << id << ": giving up after "
                << client.retries() << " reconnect attempt(s): " << e.what()
                << "\n";
      return 1;
    }
    std::cout << "client " << id << ": participated in " << done
              << " round(s), " << client.rounds_refused()
              << " refused by audit, " << client.retry_after_bounces()
              << " backpressure bounce(s), " << client.retries()
              << " reconnect(s)\n";
    if (const std::string path = cli.get("metrics-out"); !path.empty()) {
      obs::dump(path);
    }
    return 0;
  }

  if (const auto population =
          cli.get_uint_range("population", 0, 100'000'000);
      population > 0) {
    // Million-scale path: virtual clients materialized per shard, folded
    // into one streaming accumulator. A linear model keeps per-client cost
    // in the tens of microseconds so a 10^6-client round finishes on a CPU.
    fl::VirtualPopulationConfig pop_cfg;
    pop_cfg.num_clients = static_cast<index_t>(population);
    pop_cfg.seed = 11;
    pop_cfg.height = pop_cfg.width = 12;
    pop_cfg.examples_per_client = 8;
    pop_cfg.batch_size = 4;
    pop_cfg.preprocessor = defense;
    pop_cfg.auditor = auditor;
    const nn::ImageSpec pop_spec{3, pop_cfg.height, pop_cfg.width};
    const index_t pop_classes = pop_cfg.num_classes;
    pop_cfg.factory = [pop_spec, pop_classes] {
      common::Rng init(7);  // fresh per call — the factory must be pure
      return nn::make_linear_model(pop_spec, pop_classes, init);
    };

    fl::ShardedConfig shard_cfg;
    shard_cfg.cohort_size =
        static_cast<index_t>(cli.get_uint_range("cohort", 0, population));
    shard_cfg.shard_size = static_cast<index_t>(
        cli.get_uint_range("shard-size", 1, 1'000'000));
    shard_cfg.seed = 3;
    const std::string sampler = cli.get("sampler");
    if (sampler == "hash") {
      shard_cfg.sampler = fl::CohortSampler::kHashThreshold;
    } else if (sampler == "fy") {
      shard_cfg.sampler = fl::CohortSampler::kFisherYates;
    } else {
      throw ConfigError("--sampler must be hash or fy, got '" + sampler + "'");
    }
    shard_cfg.quorum_fraction = cli.get_real("quorum");

    auto pop_server =
        std::make_unique<fl::Server>(pop_cfg.factory(), /*learning_rate=*/0.15);
    // The streaming engine refuses the buffering order-statistic
    // aggregators at construction — fedavg/normbound only.
    pop_server->set_aggregator(aggregator);
    fl::ShardedSimulation engine(std::move(pop_server),
                                 fl::VirtualPopulation(pop_cfg), shard_cfg);
    if (!defense_stack->empty()) engine.set_defense_stack(defense_stack);

    if (const fl::FaultConfig faults = parse_faults(cli); faults.any()) {
      engine.set_fault_plan(fl::FaultPlan(faults));
    }

    const auto manager = open_checkpoints(cli, engine, [&](std::uint64_t at) {
      std::cout << "resumed at round " << at
                << (engine.mid_round() ? " (mid-round)" : "") << "\n";
    });
    if (const auto every_shards = cli.get_uint("checkpoint-every-shards");
        manager != nullptr && every_shards > 0) {
      // Shard-boundary snapshots: a SIGKILL mid-round resumes from the
      // last completed shard instead of replaying the whole round.
      engine.set_shard_hook(
          [&engine, &manager, every_shards](const fl::ShardProgress& p) {
            if ((p.shard + 1) % every_shards == 0 &&
                p.shard + 1 < p.num_shards) {
              engine.save_checkpoint(*manager);
            }
          });
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t folded = 0;
    run_rounds(engine, rounds, manager.get(),
               cli.get_uint("checkpoint-every"),
               [&folded](std::uint64_t r, index_t cohort) {
                 folded += cohort;
                 std::cout << "round " << r << ": cohort " << cohort << "\n";
               });
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    std::cout << "population " << population << ": " << folded
              << " client-rounds in " << wall.count() << " s ("
              << (wall.count() > 0.0
                      ? static_cast<double>(folded) / wall.count()
                      : 0.0)
              << " clients/s)\n";
    export_metrics(cli);
    return 0;
  }

  auto server = std::make_unique<fl::Server>(factory(), /*learning_rate=*/0.15);
  auto* server_ptr = server.get();
  server_ptr->set_aggregator(aggregator);

  if (const std::string listen = cli.get("listen"); !listen.empty()) {
    // Server process: same selection seed as the in-process engine, so a
    // full-population federation (--per-round 0) converges to the same
    // bytes the simulation would have produced.
    const auto per_round = static_cast<index_t>(cli.get_uint("per-round"));
    net::FlServerConfig server_cfg;
    server_cfg.cohort_size = per_round == 0 ? n_clients : per_round;
    server_cfg.rounds = rounds;
    server_cfg.quorum_fraction = cli.get_real("quorum");
    server_cfg.selection_seed = 3;  // SimulationConfig's seed below
    // Survivable serving (DESIGN.md §5j): with --checkpoint-dir the accepted
    // updates are durably folded and a killed server restarted with the SAME
    // command line picks the round back up — reconnecting clients resolve
    // their in-flight updates via the resume handshake.
    std::unique_ptr<ckpt::CheckpointManager> net_manager;
    if (const std::string dir = cli.get("checkpoint-dir"); !dir.empty()) {
      net_manager = std::make_unique<ckpt::CheckpointManager>(
          dir, static_cast<int>(cli.get_int("checkpoint-keep")));
      server_cfg.checkpoint = net_manager.get();
      server_cfg.checkpoint_every_accepts =
          cli.get_uint("checkpoint-every-accepts");
    }
    net::FlServer net_server(*server_ptr, server_cfg);
    if (net_manager && !net_manager->generations().empty()) {
      const std::uint64_t round = net_server.resume_from();
      std::cout << "resumed from " << net_manager->dir() << " at round "
                << round << " (" << net_server.rounds_served()
                << " served)\n";
    } else if (cli.get_bool("resume")) {
      OASIS_CHECK_MSG(net_manager != nullptr,
                      "--resume requires --checkpoint-dir");
      std::cout << "no checkpoint to resume from; starting fresh\n";
    }
    net_server.listen(cli.get("host"),
                     static_cast<std::uint16_t>(cli.get_uint("listen")));
    std::cout << "listening on " << cli.get("host") << ":" << net_server.port()
              << " (cohort " << server_cfg.cohort_size << ", rounds " << rounds
              << ")\n"
              << std::flush;
    net_server.serve();
    const real acc = metrics::accuracy(server_ptr->global_model(), dataset.test);
    obs::gauge("fl.global_test_accuracy").set(acc);
    std::cout << "served " << net_server.rounds_served()
              << " round(s); final global test accuracy " << acc * 100.0
              << "%\n";
    export_metrics(cli);
    return 0;
  }

  std::vector<std::unique_ptr<fl::Client>> clients;
  for (index_t i = 0; i < n_clients; ++i) {
    clients.push_back(std::make_unique<fl::Client>(
        i, shards[i], factory, /*batch_size=*/16, defense,
        common::Rng(1000 + i)));
    if (auditor) clients[i]->set_model_auditor(auditor);
  }
  fl::SimulationConfig sim_cfg{static_cast<index_t>(cli.get_uint("per-round")),
                               /*seed=*/3};
  sim_cfg.quorum_fraction = cli.get_real("quorum");
  fl::Simulation sim(std::move(server), std::move(clients), sim_cfg);
  if (!defense_stack->empty()) sim.set_defense_stack(defense_stack);

  const fl::FaultConfig faults = parse_faults(cli);
  if (faults.any()) {
    sim.set_fault_plan(fl::FaultPlan(faults));
    // This federation runs without secure aggregation, so the norm screen
    // is safe to arm; without it one accepted norm-scaled poison would blow
    // up the global model and taint every later round.
    fl::ValidationConfig validation;
    validation.max_grad_norm = 1e4;
    server_ptr->set_validation(validation);
    std::cout << "fault plan: dropout " << faults.dropout_prob
              << ", straggler " << faults.straggler_prob << ", corrupt "
              << faults.corrupt_prob << ", poison " << faults.poison_prob
              << ", byzantine " << faults.byzantine_fraction
              << " (seed " << faults.seed << ", quorum "
              << sim_cfg.quorum_fraction << ")\n";
  }

  const auto manager = open_checkpoints(cli, sim, [](std::uint64_t at) {
    std::cout << "resumed from checkpoint at round " << at << "\n";
  });
  run_rounds(sim, rounds, manager.get(), cli.get_uint("checkpoint-every"),
             [&](std::uint64_t r, const std::vector<std::uint64_t>&) {
               if (r % 25 == 0 || r == rounds) {
                 const real acc = metrics::accuracy(
                     server_ptr->global_model(), dataset.test);
                 obs::gauge("fl.global_test_accuracy").set(acc);
                 std::cout << "round " << r << ": global test accuracy "
                           << acc * 100.0 << "%\n";
               }
             });
  export_metrics(cli);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A configuration the engines refuse (a ConfigError, say) is reported,
  // not left to abort the process.
  try {
    return run(argc, argv);
  } catch (const oasis::Error& e) {
    std::cerr << "fl_training: " << e.what() << "\n";
    return 2;
  }
}
