// Multi-process socket serving load bench.
//
// The parent process serves a federation over a loopback TCP socket
// (net::FlServer); each client is a real forked process driving fl::Client
// training through net::FlClient under the round loop's fl::FaultPlan:
// dropouts that never train, stragglers holding their update, frames cut
// mid-way, corrupted payload bytes, duplicate delivery, numeric poison. The
// bench reports rounds/s, p50/p99 dispatch→cutover round latency, and the
// validation/net reject-counter deltas as one JSON document — the
// operational fingerprint a deployment would alert on.
//
//   $ ./net_rounds --clients 6 --rounds 15 --dropout 0.1 --corrupt 0.05
//
// Server-kill fault mode (DESIGN.md §5j): with --server-kill-every N > 0 the
// server itself runs in a forked child with a checkpoint directory, the
// parent SIGKILLs it after every N additional committed rounds and re-forks
// it with resume_from(), and the JSON gains the recovery-latency percentiles
// (restart fork → next committed round) plus the fleet's aggregated
// net.reconnect.* counter deltas:
//
//   $ ./net_rounds --clients 6 --rounds 15 --server-kill-every 5
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "ckpt/manager.h"
#include "common/error.h"
#include "data/synthetic.h"
#include "fl/fault.h"
#include "fl/preprocessor.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"

namespace {

using namespace oasis;

struct LoadConfig {
  index_t n_clients = 6;
  std::uint64_t rounds = 15;
  fl::FaultConfig faults;
  real quorum = 0.5;
  std::uint64_t timeout_sec = 120;
  /// > 0: run the server in a forked child and SIGKILL it after every this
  /// many additional committed rounds, restarting from its checkpoints.
  std::uint64_t server_kill_every = 0;
};

/// tmp + rename so a concurrent reader never observes a partial file.
void write_file_whole(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  std::filesystem::rename(tmp, path);
}

std::string read_file_whole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

fl::ModelFactory make_factory(const data::SynthDataset& dataset) {
  const index_t classes = dataset.train.num_classes();
  return [classes] {
    const nn::ImageSpec spec{3, 12, 12};
    common::Rng init_rng(7);
    return nn::make_mini_convnet(spec, classes, init_rng, 4);
  };
}

/// Child process body: one client identity, FaultPlan-driven delivery.
/// Communicates with the parent only through the socket and its exit code
/// (0 = clean goodbye, 2 = retry budget exhausted, 1 = anything else).
int run_child(const data::SynthDataset& dataset, const LoadConfig& cfg,
              std::uint16_t port, index_t id, const std::string& stats_path) {
  try {
    const auto shards = dataset.train.shard(cfg.n_clients);
    fl::Client core(id, shards[id], make_factory(dataset), /*batch_size=*/8,
                    std::make_shared<fl::IdentityPreprocessor>(),
                    common::Rng(1000 + id));
    net::FlClientConfig client_cfg;
    client_cfg.client_id = id;
    // The budget bounds consecutive REFUSED attempts: once the server stops
    // serving, a client that was mid-reconnect (after a drop/truncate fault)
    // burns through this in a few seconds and exits as "orphaned" instead of
    // spinning on a closed port forever.
    client_cfg.max_attempts = 50;
    client_cfg.backoff_ms = 5;
    // A server that goes silent mid-connection should cost seconds, not the
    // default 30 s, before the client gives up on the socket.
    client_cfg.io_timeout_ms = 2000;
    if (cfg.server_kill_every > 0) {
      // The fleet rides out server-kill windows: a bigger budget (the dead
      // window costs many refused attempts) and seeded jitter so the restart
      // is not greeted by a synchronized thundering herd.
      client_cfg.max_attempts = 400;
      client_cfg.jitter_seed = cfg.faults.seed;
    } else {
      // Capped at 100 ms a wait, the 50 attempts drain in under 5 s, inside
      // the parent's 10 s reap grace, so an orphan exits 2 and still writes
      // its stats file. At the 2 s default cap they took over 80 s, and the
      // grace ended in a SIGKILL.
      client_cfg.backoff_max_ms = 100;
    }
    net::FlClient client(core, client_cfg);

    // Server-kill mode measures the recovery machinery in isolation: the
    // SIGKILL/restart cycle IS the fault. Mixing in the random client plan
    // would muddy the recovery percentiles — and a dropout-afflicted client
    // can fall behind the server's round count for good, leaving it spinning
    // against the closed port long after the schedule completes.
    if (cfg.server_kill_every == 0) {
      client.set_fault_plan(fl::FaultPlan(cfg.faults));
    }
    int code = 0;
    try {
      client.run("127.0.0.1", port);
    } catch (const net::NetError& e) {
      if (e.reason() != net::NetError::Reason::kRetryExhausted) throw;
      code = 2;  // orphaned (see below); still report reconnect stats
    }
    if (!stats_path.empty()) {
      // The fleet's reconnect fingerprint crosses the process boundary as a
      // tiny key/value file; the parent aggregates them into the JSON.
      std::ostringstream stats;
      stats << "retries " << client.retries() << "\n"
            << "sessions_resumed " << client.sessions_resumed() << "\n"
            << "cached_resends " << client.cached_resends() << "\n"
            << "backoff_ms_total " << client.backoff_ms_total() << "\n"
            << "rounds_completed " << client.rounds_completed() << "\n";
      write_file_whole(stats_path, stats.str());
    }
    return code;
  } catch (const net::NetError& e) {
    // Exit 2 = orphaned: the server finished while this client was
    // disconnected (a fault put it mid-reconnect at goodbye time). A normal
    // outcome under dropout, reported separately from real failures.
    if (e.reason() == net::NetError::Reason::kRetryExhausted) return 2;
    std::cerr << "[child " << id << "] " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "[child " << id << "] " << e.what() << "\n";
    return 1;
  } catch (...) {
    return 1;
  }
}

/// Builds the federation core the server (in-process or forked) drives.
std::unique_ptr<fl::Server> make_server_core(const data::SynthDataset& dataset) {
  auto core = std::make_unique<fl::Server>(make_factory(dataset)(),
                                           /*learning_rate=*/0.1);
  // This federation has no secure aggregation, so the norm screen is safe
  // to arm — it is what catches the norm-scaled poison faults.
  fl::ValidationConfig validation;
  validation.max_grad_norm = 1e4;
  core->set_validation(validation);
  return core;
}

net::FlServerConfig make_server_config(const LoadConfig& cfg) {
  net::FlServerConfig server_cfg;
  server_cfg.cohort_size = cfg.n_clients;
  server_cfg.rounds = cfg.rounds;
  server_cfg.quorum_fraction = cfg.quorum;
  server_cfg.round_timeout_ms = 2000;
  server_cfg.retry_after_ms = 10;
  return server_cfg;
}

/// Server child body for the kill mode: restore from the run directory's
/// checkpoints (first launch finds none), listen on the advertised port
/// (first launch binds ephemeral and advertises it), publish the committed
/// count to the status file at every round boundary, and — if never killed —
/// dump the final counter fingerprint for the parent's JSON.
int run_server_child(const data::SynthDataset& dataset, const LoadConfig& cfg,
                     const std::string& run_dir) {
  try {
    ckpt::CheckpointManager manager(run_dir + "/ckpt", /*keep=*/4);
    auto core = make_server_core(dataset);
    net::FlServerConfig server_cfg = make_server_config(cfg);
    server_cfg.checkpoint = &manager;
    server_cfg.checkpoint_every_accepts = 1;
    net::FlServer server(*core, server_cfg);
    if (!manager.generations().empty()) (void)server.resume_from();

    const std::string port_path = run_dir + "/port";
    const std::string port_text = read_file_whole(port_path);
    const std::uint16_t advertised =
        port_text.empty()
            ? 0
            : static_cast<std::uint16_t>(std::stoul(port_text));
    server.listen("127.0.0.1", advertised);
    if (advertised == 0) {
      write_file_whole(port_path, std::to_string(server.port()));
    }

    const std::string status_path = run_dir + "/status";
    server.set_event_hook([&server, &status_path](net::FlServer::Event e) {
      if (e == net::FlServer::Event::kPreResultSend) {
        write_file_whole(status_path, std::to_string(server.rounds_served()));
      }
    });
    server.serve();

    std::ostringstream counters;
    for (const auto& [name, value] : obs::Registry::global().counters()) {
      if (value == 0) continue;
      if (name.rfind("fl.validate.", 0) == 0 || name.rfind("fl.rounds", 0) == 0 ||
          name.rfind("net.", 0) == 0) {
        counters << name << " " << value << "\n";
      }
    }
    write_file_whole(run_dir + "/server.counters", counters.str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "[server] " << e.what() << "\n";
    return 1;
  }
}

pid_t fork_server(const data::SynthDataset& dataset, const LoadConfig& cfg,
                  const std::string& run_dir) {
  const pid_t pid = ::fork();
  OASIS_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    for (int fd = 3; fd < 256; ++fd) ::close(fd);
    ::_exit(run_server_child(dataset, cfg, run_dir));
  }
  return pid;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string json_escape_key(const std::string& s) { return s; }  // [a-z.]* only

}  // namespace

int main(int argc, char** argv) {
  using namespace oasis;
  using namespace oasis::bench;

  common::CliParser cli("net_rounds",
                        "Socket serving throughput under a multi-process "
                        "fault-injecting client fleet");
  cli.add_flag("clients", "client processes to fork", "6");
  cli.add_flag("rounds", "committed rounds to serve", "15");
  cli.add_flag("dropout", "per-round client dropout probability", "0.1");
  cli.add_flag("straggle", "per-round straggler probability", "0.1");
  cli.add_flag("corrupt", "per-round payload corruption probability", "0.05");
  cli.add_flag("poison", "per-round numeric poison probability", "0.05");
  cli.add_flag("quorum", "valid-update quorum fraction", "0.5");
  cli.add_flag("fault-seed", "fault plan seed", "677200");
  cli.add_flag("timeout-sec", "wall-clock bound on the whole run", "120");
  cli.add_flag("server-kill-every",
               "SIGKILL + checkpoint-restart the (forked) server after every "
               "N committed rounds; 0 = never",
               "0");
  runtime::add_cli_flag(cli);
  bench::add_metrics_flag(cli);
  cli.parse(argc, argv);
  const bench::MetricsExport metrics_export(cli);

  LoadConfig cfg;
  cfg.n_clients = static_cast<index_t>(cli.get_uint("clients"));
  cfg.rounds = cli.get_uint("rounds");
  cfg.faults.dropout_prob = cli.get_real("dropout");
  cfg.faults.straggler_prob = cli.get_real("straggle");
  cfg.faults.corrupt_prob = cli.get_real("corrupt");
  cfg.faults.poison_prob = cli.get_real("poison");
  cfg.faults.seed = cli.get_uint("fault-seed");
  cfg.quorum = cli.get_real("quorum");
  cfg.timeout_sec = cli.get_uint("timeout-sec");
  cfg.server_kill_every = cli.get_uint("server-kill-every");

  print_banner("net_rounds",
               "Forked client fleet over loopback TCP with injected "
               "delivery faults");

  // Fork discipline (see tests/crash_test.cpp): no worker threads may exist
  // when the children are cloned.
  runtime::set_num_threads(1);

  data::SynthConfig synth = data::synth_imagenet_config();
  synth.height = synth.width = 12;
  synth.train_per_class = 8;
  synth.test_per_class = 2;
  const data::SynthDataset dataset = data::generate(synth);

  // Cross-process scratch: client reconnect-stat files, and — in kill mode —
  // the checkpoint directory, port advertisement, and round-progress status.
  namespace fs = std::filesystem;
  const std::string run_dir =
      (fs::temp_directory_path() /
       ("oasis_net_rounds_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  const auto stats_path = [&run_dir](index_t id) {
    return run_dir + "/client-" + std::to_string(id) + ".stats";
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::seconds(static_cast<long>(cfg.timeout_sec));
  const auto now_ms_since = [](auto start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  std::vector<pid_t> children;
  const auto fork_clients = [&](std::uint16_t port) {
    for (index_t i = 0; i < cfg.n_clients; ++i) {
      const pid_t pid = ::fork();
      OASIS_CHECK_MSG(pid >= 0, "fork failed");
      if (pid == 0) {
        // Drop every inherited descriptor — above all any LISTENING socket.
        // A child that kept one would hold the port open after the server
        // stops serving, so orphaned siblings would "successfully" connect
        // to a backlog nobody will ever accept and hang out their full io
        // timeout instead of seeing connection-refused.
        for (int fd = 3; fd < 256; ++fd) ::close(fd);
        ::_exit(run_child(dataset, cfg, port, i, stats_path(i)));
      }
      children.push_back(pid);
    }
  };

  bool timed_out = false;
  std::uint64_t rounds_committed = 0;
  std::vector<double> latencies;                      // in-process mode
  std::vector<double> recovery_ms;                    // kill mode
  index_t server_kills = 0;
  index_t server_failures = 0;
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;

  if (cfg.server_kill_every == 0) {
    // In-process server: the original load-bench flow.
    auto core = make_server_core(dataset);
    net::FlServer server(*core, make_server_config(cfg));
    server.listen("127.0.0.1", 0);
    fork_clients(server.port());
    while (server.step(/*timeout_ms=*/20)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        break;
      }
    }
    rounds_committed = server.rounds_served();
    latencies = server.round_latencies_ms();
    for (const auto& [name, value] : obs::Registry::global().counters()) {
      const bool wanted = name.rfind("fl.validate.", 0) == 0 ||
                          name.rfind("fl.rounds", 0) == 0 ||
                          name.rfind("net.", 0) == 0;
      if (wanted && value != 0) fingerprint.emplace_back(name, value);
    }
  } else {
    // Server-kill mode: the server lives in a forked child so SIGKILL means
    // SIGKILL — no destructors, no flushes — and every restart proves the
    // checkpoint path end to end. Recovery latency = restart fork → the next
    // committed round reaching the status file.
    pid_t server_pid = fork_server(dataset, cfg, run_dir);
    auto forked_at = std::chrono::steady_clock::now();

    std::uint16_t port = 0;
    while (port == 0 && std::chrono::steady_clock::now() < deadline) {
      const std::string text = read_file_whole(run_dir + "/port");
      if (!text.empty()) {
        port = static_cast<std::uint16_t>(std::stoul(text));
        break;
      }
      ::poll(nullptr, 0, 5);
    }
    OASIS_CHECK_MSG(port != 0, "server child never advertised a port");
    fork_clients(port);

    std::uint64_t last_status = 0;
    std::uint64_t last_kill_status = 0;
    bool awaiting_recovery = false;
    bool server_done = false;
    while (std::chrono::steady_clock::now() < deadline) {
      int wstatus = 0;
      const pid_t reaped = ::waitpid(server_pid, &wstatus, WNOHANG);
      if (reaped == server_pid) {
        // Clean exit = schedule complete. Anything else is a real server
        // bug (the kills below are reaped synchronously, never seen here).
        if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
          ++server_failures;
        }
        server_done = true;
        break;
      }
      const std::string text = read_file_whole(run_dir + "/status");
      const std::uint64_t status = text.empty() ? 0 : std::stoull(text);
      if (status > last_status) {
        if (awaiting_recovery) {
          recovery_ms.push_back(now_ms_since(forked_at));
          awaiting_recovery = false;
        }
        last_status = status;
        if (status < cfg.rounds &&
            status - last_kill_status >= cfg.server_kill_every) {
          ::kill(server_pid, SIGKILL);
          ::waitpid(server_pid, &wstatus, 0);
          ++server_kills;
          last_kill_status = status;
          server_pid = fork_server(dataset, cfg, run_dir);
          forked_at = std::chrono::steady_clock::now();
          awaiting_recovery = true;
        }
      }
      ::poll(nullptr, 0, 5);
    }
    if (!server_done) {
      timed_out = true;
      ::kill(server_pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(server_pid, &wstatus, 0);
    }
    {
      const std::string text = read_file_whole(run_dir + "/status");
      rounds_committed = text.empty() ? 0 : std::stoull(text);
    }
    // The final (uninterrupted) server child dumped its counters; restarts
    // in between lost theirs — the fingerprint covers the last life only.
    std::istringstream counters(read_file_whole(run_dir + "/server.counters"));
    std::string name;
    std::uint64_t value = 0;
    while (counters >> name >> value) fingerprint.emplace_back(name, value);
  }
  const auto t1 = std::chrono::steady_clock::now();

  if (timed_out) {
    // The fleet is only alive because the server stopped serving it; don't
    // let waitpid turn a bounded bench into an unbounded one.
    for (const pid_t pid : children) ::kill(pid, SIGKILL);
  }
  index_t child_failures = 0;
  index_t child_orphaned = 0;
  // Even a clean completion can leave stragglers: a client that was
  // mid-backoff when the server sent its last result spins on the closed
  // port until its attempt budget runs dry — give the fleet a bounded grace
  // to drain naturally, then reap hard and count the kills as orphaned.
  std::vector<pid_t> pending = children;
  const auto reap_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool force_killed = false;
  while (!pending.empty()) {
    std::vector<pid_t> still_running;
    for (const pid_t pid : pending) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == 0) {
        still_running.push_back(pid);
        continue;
      }
      if (force_killed && WIFSIGNALED(status)) {
        ++child_orphaned;
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
        ++child_orphaned;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++child_failures;
      }
    }
    pending.swap(still_running);
    if (pending.empty()) break;
    if (!force_killed && std::chrono::steady_clock::now() >= reap_deadline) {
      for (const pid_t pid : pending) ::kill(pid, SIGKILL);
      force_killed = true;
    }
    ::poll(nullptr, 0, 10);
  }

  // Aggregate the fleet's reconnect fingerprint (net.reconnect.* deltas,
  // summed across the client processes' stat files).
  std::uint64_t fleet_retries = 0, fleet_resumed = 0, fleet_resends = 0,
                fleet_backoff_ms = 0;
  for (index_t i = 0; i < cfg.n_clients; ++i) {
    std::istringstream stats(read_file_whole(stats_path(i)));
    std::string key;
    std::uint64_t value = 0;
    while (stats >> key >> value) {
      if (key == "retries") fleet_retries += value;
      if (key == "sessions_resumed") fleet_resumed += value;
      if (key == "cached_resends") fleet_resends += value;
      if (key == "backoff_ms_total") fleet_backoff_ms += value;
    }
  }

  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  const double rps =
      seconds > 0.0 ? static_cast<double>(rounds_committed) / seconds : 0.0;
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double rec_p50 = percentile(recovery_ms, 0.50);
  const double rec_p99 = percentile(recovery_ms, 0.99);

  obs::gauge("bench.net_rounds.rounds_per_sec").set(rps);
  obs::gauge("bench.net_rounds.p50_ms").set(p50);
  obs::gauge("bench.net_rounds.p99_ms").set(p99);
  if (cfg.server_kill_every > 0) {
    obs::gauge("bench.net_rounds.recovery_p50_ms").set(rec_p50);
    obs::gauge("bench.net_rounds.recovery_p99_ms").set(rec_p99);
  }

  // One JSON document on stdout: throughput, tail latency, the fleet's
  // reconnect totals, and every fl.validate.* / net.* counter (the reject
  // fingerprint of the fault mix).
  std::ostringstream json;
  json << "{\n  \"schema\": \"oasis.net_rounds/v1\",\n"
       << "  \"clients\": " << cfg.n_clients << ",\n"
       << "  \"rounds_requested\": " << cfg.rounds << ",\n"
       << "  \"rounds_committed\": " << rounds_committed << ",\n"
       << "  \"timed_out\": " << (timed_out ? "true" : "false") << ",\n"
       << "  \"child_failures\": " << child_failures << ",\n"
       << "  \"child_orphaned\": " << child_orphaned << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"rounds_per_sec\": " << rps << ",\n"
       << "  \"p50_round_ms\": " << p50 << ",\n"
       << "  \"p99_round_ms\": " << p99 << ",\n";
  if (cfg.server_kill_every > 0) {
    json << "  \"server_kill_every\": " << cfg.server_kill_every << ",\n"
         << "  \"server_kills\": " << server_kills << ",\n"
         << "  \"server_failures\": " << server_failures << ",\n"
         << "  \"recovery_p50_ms\": " << rec_p50 << ",\n"
         << "  \"recovery_p99_ms\": " << rec_p99 << ",\n";
  }
  json << "  \"reconnect\": {\n"
       << "    \"attempts\": " << fleet_retries << ",\n"
       << "    \"sessions_resumed\": " << fleet_resumed << ",\n"
       << "    \"cached_resends\": " << fleet_resends << ",\n"
       << "    \"backoff_ms_total\": " << fleet_backoff_ms << "\n  },\n"
       << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : fingerprint) {
    json << (first ? "" : ",") << "\n    \"" << json_escape_key(name)
         << "\": " << value;
    first = false;
  }
  json << "\n  }\n}";
  std::cout << json.str() << "\n";

  fs::remove_all(run_dir);
  return timed_out ? 1 : 0;
}
