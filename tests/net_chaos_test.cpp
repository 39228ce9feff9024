// Socket-level chaos harness for the survivable serving path (DESIGN.md §5j).
//
// Each scenario forks a checkpointing net::FlServer and a small federation of
// net::FlClient processes, SIGKILLs the server at an armed kill point
// (mid-accept, mid-frame, post-accept-pre-ack, post-checkpoint), forks a
// replacement that restores from the checkpoint directory and re-binds the
// same port, and lets the clients reconnect through their backoff/resume
// machinery. The verdict is a memcmp: the final model bytes must equal the
// uninterrupted in-process reference, for every kill point at 1 and 8
// threads — which proves no accepted update was double-counted (a resend of
// a folded update must bounce off the duplicate screen) or lost (everything
// past the snapshot is re-requested via session resume).
//
// Fork discipline (tests/crash_test.cpp): the parent pins itself to one
// runtime thread before any fork; children re-raise their own thread count
// after fork. Children report through files and exit codes only.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/server.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace oasis::net {
namespace {

using testutil::ScratchDir;
namespace fs = std::filesystem;

constexpr index_t kClients = 3;
constexpr std::uint64_t kRounds = 3;
constexpr real kLearningRate = 0.1;

fl::ModelFactory chaos_factory() {
  return [] {
    common::Rng rng(0xC4A05);
    return nn::make_mlp({3, 8, 8}, {16}, 4, rng);
  };
}

std::unique_ptr<fl::Client> make_fl_client(std::uint64_t id) {
  data::SynthConfig cfg;
  cfg.num_classes = 4;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 6;
  cfg.test_per_class = 0;
  cfg.seed = 0xC4A05 + id;
  return std::make_unique<fl::Client>(
      id, data::generate(cfg).train, chaos_factory(), /*batch_size=*/4,
      std::make_shared<fl::IdentityPreprocessor>(),
      common::Rng(0xC4A05 ^ (0xC11E + id)));
}

/// Uninterrupted reference: the same rounds driven entirely in process,
/// ascending id order (the unseeded server's round order). Every chaos
/// scenario must land on exactly these bytes.
tensor::ByteBuffer reference_model() {
  fl::Server ref(chaos_factory()(), kLearningRate);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::uint64_t id = 0; id < kClients; ++id) {
    clients.push_back(make_fl_client(id));
  }
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const fl::GlobalModelMessage msg = ref.begin_round();
    std::vector<fl::ClientUpdateMessage> updates;
    for (auto& c : clients) updates.push_back(c->handle_round(msg));
    ref.finish_round(updates, 0);
  }
  return nn::serialize_state(ref.global_model());
}

/// tmp + rename so a reader never observes a partial file.
void write_file_whole(const std::string& path, const void* data,
                      std::size_t n) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
  }
  fs::rename(tmp, path);
}

std::string read_file_whole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct ServerSpec {
  std::string ckpt_dir;
  std::string port_file;
  std::string model_out;
  index_t threads = 1;
  bool resume = false;        // restore from ckpt_dir before listening
  std::uint16_t port = 0;     // 0 = ephemeral; the bound port goes to port_file
  std::optional<FlServer::Event> kill_event;
  int kill_at = 0;            // SIGKILL self on the Nth firing of kill_event
};

[[noreturn]] void run_server_child(const ServerSpec& spec) {
  int code = 1;
  try {
    runtime::set_num_threads(spec.threads);
    fl::Server core(chaos_factory()(), kLearningRate);
    ckpt::CheckpointManager manager(spec.ckpt_dir, /*keep=*/4);
    FlServerConfig cfg;
    cfg.cohort_size = kClients;
    cfg.rounds = kRounds;
    // Deadlines far beyond any recovery latency the harness produces: a
    // scenario must recover every cohort member via resume, never commit a
    // deadline-trimmed round (which would not memcmp the reference).
    cfg.round_timeout_ms = 20'000;
    cfg.idle_timeout_ms = 20'000;
    // A read budget below one update body makes every update span several
    // read passes, so kMidFrame kill points fire deterministically.
    cfg.read_budget_bytes = 4096;
    cfg.checkpoint = &manager;
    cfg.checkpoint_every_accepts = 1;
    FlServer server(core, cfg);
    int seen = 0;
    if (spec.kill_event) {
      server.set_event_hook([&](FlServer::Event event) {
        if (event == *spec.kill_event && ++seen == spec.kill_at) {
          ::raise(SIGKILL);
        }
      });
    }
    if (spec.resume) {
      const std::uint64_t round = server.resume_from();
      const std::string dbg = "restored round " + std::to_string(round) +
                              " served " +
                              std::to_string(server.rounds_served()) + "\n";
      write_file_whole(spec.model_out + ".restore", dbg.data(), dbg.size());
    }
    server.listen("127.0.0.1", spec.port);
    if (spec.port == 0) {
      const std::string text = std::to_string(server.port());
      write_file_whole(spec.port_file, text.data(), text.size());
    }
    server.serve();
    {
      std::stringstream obs;
      for (const auto& [name, value] : obs::Registry::global().counters()) {
        if (value != 0 && name.rfind("net.", 0) == 0) {
          obs << name << " = " << value << "\n";
        }
      }
      const std::string text = obs.str();
      write_file_whole(spec.model_out + ".obs", text.data(), text.size());
    }
    const auto model = nn::serialize_state(core.global_model());
    write_file_whole(spec.model_out, model.data(), model.size());
    code = 0;
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

[[noreturn]] void run_client_child(std::uint64_t id,
                                   const std::string& port_file,
                                   index_t threads) {
  // Drop inherited descriptors (gtest plumbing, the sibling server's
  // listener on a respawn race) — files and exit codes are the only report
  // channel.
  for (int fd = 3; fd < 256; ++fd) ::close(fd);
  int code = 1;
  try {
    runtime::set_num_threads(threads);
    std::uint16_t port = 0;
    for (int i = 0; i < 2000 && port == 0; ++i) {
      const std::string text = read_file_whole(port_file);
      if (!text.empty()) {
        port = static_cast<std::uint16_t>(std::stoi(text));
      } else {
        ::usleep(5'000);
      }
    }
    if (port == 0) ::_exit(2);
    auto core = make_fl_client(id);
    FlClientConfig cfg;
    cfg.client_id = id;
    // Ride out the kill→restart window: a dead endpoint costs many quick
    // attempts, and any server contact resets the budget.
    cfg.max_attempts = 2000;
    cfg.backoff_ms = 2;
    cfg.backoff_max_ms = 50;
    cfg.jitter_seed = 0x1A57;
    cfg.io_timeout_ms = 2'000;
    FlClient client(*core, cfg);
    client.run("127.0.0.1", port);
    code = 0;
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

void run_kill_scenario(const std::string& tag, FlServer::Event kill_event,
                       int kill_at, index_t threads) {
  // Fork discipline: one runtime thread in the parent before ANY fork —
  // including the reference computation, which would otherwise spin up the
  // worker pool.
  runtime::set_num_threads(1);
  const tensor::ByteBuffer want = reference_model();

  ScratchDir scenario("net_chaos_" + tag);
  ServerSpec spec;
  spec.ckpt_dir = scenario.path("ckpt");
  spec.port_file = scenario.path("port");
  spec.model_out = scenario.path("model");
  spec.threads = threads;
  spec.kill_event = kill_event;
  spec.kill_at = kill_at;

  const pid_t server_pid = ::fork();
  ASSERT_GE(server_pid, 0) << "fork failed";
  if (server_pid == 0) run_server_child(spec);

  std::vector<pid_t> client_pids;
  for (std::uint64_t id = 0; id < kClients; ++id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) run_client_child(id, spec.port_file, threads);
    client_pids.push_back(pid);
  }

  // The armed server must die by SIGKILL at its kill point — an exit means
  // the kill point never fired and the scenario proved nothing.
  int status = 0;
  ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "server did not die at the kill point (status " << status << ")";

  // Restart: restore the fold from disk, re-bind the SAME port the clients
  // are hammering with reconnect attempts.
  const std::string port_text = read_file_whole(spec.port_file);
  ASSERT_FALSE(port_text.empty()) << "server died before publishing its port";
  ServerSpec restart = spec;
  restart.kill_event.reset();
  restart.resume = true;
  restart.port = static_cast<std::uint16_t>(std::stoi(port_text));
  const pid_t restart_pid = ::fork();
  ASSERT_GE(restart_pid, 0) << "fork failed";
  if (restart_pid == 0) run_server_child(restart);

  ASSERT_EQ(::waitpid(restart_pid, &status, 0), restart_pid);
  ASSERT_TRUE(WIFEXITED(status)) << "restarted server crashed";
  ASSERT_EQ(WEXITSTATUS(status), 0) << "restarted server failed to finish";
  for (const pid_t pid : client_pids) {
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "client did not reach goodbye";
  }

  const std::string got = read_file_whole(spec.model_out);
  ASSERT_FALSE(got.empty()) << "restarted server wrote no model";
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(), want.size()) != 0) {
    write_file_whole("/tmp/chaos_want.bin", want.data(), want.size());
    write_file_whole("/tmp/chaos_got.bin", got.data(), got.size());
  }
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size()))
      << "killed-and-restarted serving must replay the uninterrupted "
         "federation bit-exactly\n--- restore:\n"
      << read_file_whole(spec.model_out + ".restore") << "--- obs:\n"
      << read_file_whole(spec.model_out + ".obs");
}

// Kill points (FlServer::Event), each at 1 and 8 threads:
//   kUpdateAccepted #2  — mid-accept: one member durably folded, the second
//                         folded in memory but (racing the every-1 cadence)
//                         possibly not yet saved when the SIGKILL lands.
//   kMidFrame #2        — a partial update frame buffered in the decoder.
//   kPreResultSend #1   — post-accept-pre-ack: round committed and
//                         checkpointed, no client told yet (the lost-ack
//                         window the resume handshake exists for).
//   kCheckpointSaved #2 — immediately after a mid-round snapshot landed
//                         (#1 is the generation-0 snapshot in listen()).

TEST(NetChaos, KillMidAcceptOneThread) {
  run_kill_scenario("accept_t1", FlServer::Event::kUpdateAccepted, 2, 1);
}

TEST(NetChaos, KillMidAcceptEightThreads) {
  run_kill_scenario("accept_t8", FlServer::Event::kUpdateAccepted, 2, 8);
}

TEST(NetChaos, KillMidFrameOneThread) {
  run_kill_scenario("frame_t1", FlServer::Event::kMidFrame, 2, 1);
}

TEST(NetChaos, KillMidFrameEightThreads) {
  run_kill_scenario("frame_t8", FlServer::Event::kMidFrame, 2, 8);
}

TEST(NetChaos, KillPostAcceptPreAckOneThread) {
  run_kill_scenario("preack_t1", FlServer::Event::kPreResultSend, 1, 1);
}

TEST(NetChaos, KillPostAcceptPreAckEightThreads) {
  run_kill_scenario("preack_t8", FlServer::Event::kPreResultSend, 1, 8);
}

TEST(NetChaos, KillPostCheckpointOneThread) {
  run_kill_scenario("postckpt_t1", FlServer::Event::kCheckpointSaved, 2, 1);
}

TEST(NetChaos, KillPostCheckpointEightThreads) {
  run_kill_scenario("postckpt_t8", FlServer::Event::kCheckpointSaved, 2, 8);
}

}  // namespace
}  // namespace oasis::net
