// Kill-point crash harness (ISSUE tentpole proof): a child process runs the
// federation with periodic checkpoints and SIGKILLs itself at a randomized
// byte offset inside a randomized checkpoint write; a second child resumes
// from whatever the crash left on disk and finishes the schedule. The
// resumed run's final model bytes and obs dump must be byte-identical to an
// uninterrupted reference run — across 100 seeds per thread count, at 1 and
// 8 threads.
//
// Fork discipline: the parent configures the runtime to serial mode (no pool
// threads exist) before every fork, and children communicate only through
// files + exit status. Children never run gtest assertions; they report
// failure through exit codes the parent translates.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/io.h"
#include "ckpt/manager.h"
#include "common/error.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "fl/client.h"
#include "fl/population.h"
#include "fl/preprocessor.h"
#include "fl/server.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "test_util.h"

namespace oasis::ckpt {
namespace {

using testutil::ScratchDir;
namespace fs = std::filesystem;

constexpr std::uint64_t kFederationSeed = 4096;
constexpr std::uint64_t kRounds = 6;
constexpr std::uint64_t kSaveEvery = 2;  // checkpoints land at rounds 2, 4, 6

// Child exit codes (parent-side diagnostics).
constexpr int kOkExit = 0;
constexpr int kResumeFailedExit = 3;
constexpr int kUncaughtExit = 4;

fl::Simulation make_federation() {
  data::SynthConfig cfg;
  cfg.num_classes = 4;
  cfg.height = cfg.width = 8;
  cfg.train_per_class = 4;
  cfg.test_per_class = 0;

  const fl::ModelFactory factory = [] {
    common::Rng rng(kFederationSeed ^ 0x5EED);
    return nn::make_mlp({3, 8, 8}, {8}, 4, rng);
  };
  auto server =
      std::make_unique<fl::Server>(factory(), /*learning_rate=*/0.05);
  std::vector<std::unique_ptr<fl::Client>> clients;
  for (std::uint64_t id = 0; id < 3; ++id) {
    cfg.seed = 100 + id;
    clients.push_back(std::make_unique<fl::Client>(
        id, data::generate(cfg).train, factory, /*batch_size=*/3,
        std::make_shared<fl::IdentityPreprocessor>(),
        common::Rng(kFederationSeed ^ (0xC11E + id))));
  }
  return fl::Simulation(
      std::move(server), std::move(clients),
      fl::SimulationConfig{/*clients_per_round=*/2, kFederationSeed});
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Obs dump with timings off and the contracted "ckpt.restore" exclusion
/// (restore bookkeeping: restore_total, skipped_invalid) filtered out.
std::string comparable_obs_dump() {
  std::stringstream filtered;
  std::stringstream src(
      obs::to_json(obs::Registry::global(), {/*include_timings=*/false}));
  std::string line;
  while (std::getline(src, line)) {
    if (line.find("ckpt.restore") == std::string::npos) {
      filtered << line << '\n';
    }
  }
  return filtered.str();
}

struct ChildSpec {
  index_t threads = 1;
  std::string ckpt_dir;
  std::string model_out;  // final global-model bytes
  std::string obs_out;    // filtered obs dump
  bool arm_kill = false;
  std::int64_t kill_save = 0;    // which atomic write (0-based, from now)
  std::int64_t kill_offset = 0;  // bytes of the tmp file written before kill
};

/// The workload both children run: resume if possible, then drive the
/// round/checkpoint schedule to completion and record the final state.
[[noreturn]] void run_child(const ChildSpec& spec) {
  try {
    runtime::set_num_threads(spec.threads);
    obs::Registry::global().reset();
    fl::Simulation sim = make_federation();
    CheckpointManager manager(spec.ckpt_dir, /*keep=*/3);
    try {
      (void)sim.resume_from(manager);
    } catch (const CheckpointError& e) {
      if (e.reason() != CheckpointError::Reason::kNoValidGeneration) {
        _exit(kResumeFailedExit);
      }
      // Empty/unusable directory → fresh start, by contract.
    }
    if (spec.arm_kill) arm_kill_point(spec.kill_save, spec.kill_offset);
    while (sim.server().round() < kRounds) {
      sim.run_round();
      if (sim.server().round() % kSaveEvery == 0) {
        (void)sim.save_checkpoint(manager);
      }
    }
    write_bytes(spec.model_out,
                nn::serialize_state(sim.server().global_model()));
    write_text(spec.obs_out, comparable_obs_dump());
    _exit(kOkExit);
  } catch (...) {
    _exit(kUncaughtExit);
  }
}

struct ChildResult {
  bool signaled = false;
  int signal = 0;
  int exit_code = -1;
};

ChildResult spawn_child(const ChildSpec& spec,
                        void (*runner)(const ChildSpec&) = run_child) {
  // No pool threads may exist across fork(): serial mode tears them down.
  runtime::set_num_threads(1);
  const pid_t pid = fork();
  if (pid == 0) runner(spec);  // never returns
  ChildResult result;
  int status = 0;
  const pid_t waited = waitpid(pid, &status, 0);
  if (waited != pid) return result;  // exit_code -1 → parent-side failure
  if (WIFSIGNALED(status)) {
    result.signaled = true;
    result.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

/// Reference (uninterrupted) run at `threads`; returns the final model bytes,
/// the filtered obs dump, and the on-disk snapshot size used to scale kill
/// offsets.
struct Reference {
  std::vector<std::uint8_t> model;
  std::string obs;
  std::int64_t snapshot_size = 0;
};

Reference run_reference(const ScratchDir& scenario, index_t threads) {
  ChildSpec spec;
  spec.threads = threads;
  spec.ckpt_dir = scenario.path("ref_ckpt");
  spec.model_out = scenario.path("ref_model");
  spec.obs_out = scenario.path("ref_obs");
  const ChildResult r = spawn_child(spec);
  EXPECT_FALSE(r.signaled) << "reference child died on signal " << r.signal;
  EXPECT_EQ(r.exit_code, kOkExit);
  Reference ref;
  ref.model = read_file(spec.model_out);
  ref.obs = read_text(spec.obs_out);
  CheckpointManager manager(spec.ckpt_dir, 3);
  const auto gens = manager.generations();
  EXPECT_FALSE(gens.empty());
  if (!gens.empty()) {
    ref.snapshot_size = static_cast<std::int64_t>(
        fs::file_size(manager.path_for(gens.back())));
  }
  return ref;
}

/// One seed of the sweep: crash a run at a seed-derived (save, offset) kill
/// point, resume it, and demand bit-identity with the reference.
void run_crash_seed(const ScratchDir& scenario, const Reference& ref,
                    index_t threads, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto kill_save = rng.uniform_int(0, kRounds / kSaveEvery - 1);
  // +16 beyond the clamp point gives the post-payload kill sites (pre-fsync,
  // post-rename) extra mass; io.cpp clamps to size + 1.
  const auto kill_offset = rng.uniform_int(0, ref.snapshot_size + 16);

  const std::string tag = std::string("s").append(std::to_string(seed));
  ChildSpec crash;
  crash.threads = threads;
  crash.ckpt_dir = scenario.path(tag + "_ckpt");
  crash.model_out = scenario.path(tag + "_crash_model");
  crash.obs_out = scenario.path(tag + "_crash_obs");
  crash.arm_kill = true;
  crash.kill_save = kill_save;
  crash.kill_offset = kill_offset;
  const ChildResult crashed = spawn_child(crash);
  ASSERT_TRUE(crashed.signaled)
      << "seed " << seed << ": crash child exited " << crashed.exit_code
      << " instead of dying at save " << kill_save << " offset "
      << kill_offset;
  ASSERT_EQ(crashed.signal, SIGKILL) << "seed " << seed;

  ChildSpec resume;
  resume.threads = threads;
  resume.ckpt_dir = crash.ckpt_dir;  // same directory: whatever survived
  resume.model_out = scenario.path(tag + "_resume_model");
  resume.obs_out = scenario.path(tag + "_resume_obs");
  const ChildResult resumed = spawn_child(resume);
  ASSERT_FALSE(resumed.signaled)
      << "seed " << seed << ": resume child died on signal " << resumed.signal;
  ASSERT_EQ(resumed.exit_code, kOkExit)
      << "seed " << seed << " (save " << kill_save << ", offset "
      << kill_offset << ")";

  EXPECT_EQ(read_file(resume.model_out), ref.model)
      << "seed " << seed << ": final model bytes diverged after crash at save "
      << kill_save << " offset " << kill_offset;
  EXPECT_EQ(read_text(resume.obs_out), ref.obs)
      << "seed " << seed << ": obs dump diverged after crash at save "
      << kill_save << " offset " << kill_offset;
}

void run_sweep(const std::string& tag, index_t threads, std::uint64_t lo,
               std::uint64_t hi) {
  ScratchDir scenario("crash_" + tag);
  const Reference ref = run_reference(scenario, threads);
  ASSERT_GT(ref.snapshot_size, 0);
  for (std::uint64_t seed = lo; seed < hi; ++seed) {
    run_crash_seed(scenario, ref, threads, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Sharded engine: SIGKILL mid-shard, resume from a shard boundary -------
//
// The sharded analogue of the sweep above, with a different kill site: the
// child checkpoints at EVERY shard boundary and dies by SIGKILL after a
// seed-derived number of client folds — i.e. in the middle of a shard, with
// the accumulator holding a partial sum that never reaches disk. Resume must
// land on the last shard-boundary snapshot, re-derive the cohort, replay the
// lost shard, and finish bit-identical to the uninterrupted reference.

constexpr std::uint64_t kShardRounds = 4;
constexpr index_t kShardCohort = 6;  // shard_size 2 → 3 boundaries per round

fl::ShardedSimulation make_sharded_federation() {
  fl::VirtualPopulationConfig pop;
  pop.num_clients = 16;
  pop.seed = kFederationSeed ^ 0x5AD;
  pop.num_classes = 4;
  pop.height = pop.width = 8;
  pop.examples_per_client = 6;
  pop.batch_size = 3;
  pop.factory = [] {
    common::Rng rng(kFederationSeed ^ 0x5EED);
    return nn::make_mlp({3, 8, 8}, {8}, 4, rng);
  };
  fl::ShardedConfig cfg;
  cfg.cohort_size = kShardCohort;
  cfg.shard_size = 2;
  cfg.seed = kFederationSeed;
  auto server =
      std::make_unique<fl::Server>(pop.factory(), /*learning_rate=*/0.05);
  return fl::ShardedSimulation(std::move(server), fl::VirtualPopulation(pop),
                               std::move(cfg));
}

/// Sharded-engine child: resume if possible, checkpoint at every shard
/// boundary, optionally SIGKILL itself after `kill_offset` client folds.
[[noreturn]] void run_shard_child(const ChildSpec& spec) {
  try {
    runtime::set_num_threads(spec.threads);
    obs::Registry::global().reset();
    fl::ShardedSimulation sim = make_sharded_federation();
    CheckpointManager manager(spec.ckpt_dir, /*keep=*/3);
    try {
      (void)sim.resume_from(manager);
    } catch (const CheckpointError& e) {
      if (e.reason() != CheckpointError::Reason::kNoValidGeneration) {
        _exit(kResumeFailedExit);
      }
    }
    sim.set_shard_hook([&sim, &manager](const fl::ShardProgress&) {
      (void)sim.save_checkpoint(manager);
    });
    if (spec.arm_kill) {
      // kill_offset doubles as the fold countdown: the SIGKILL lands inside
      // a shard, between two serial folds, never at a tidy boundary.
      sim.set_client_hook(
          [remaining = spec.kill_offset](std::uint64_t, index_t) mutable {
            if (--remaining <= 0) ::kill(::getpid(), SIGKILL);
          });
    }
    while (sim.server().round() < kShardRounds) {
      sim.run_round();
    }
    write_bytes(spec.model_out,
                nn::serialize_state(sim.server().global_model()));
    write_text(spec.obs_out, comparable_obs_dump());
    _exit(kOkExit);
  } catch (...) {
    _exit(kUncaughtExit);
  }
}

Reference run_shard_reference(const ScratchDir& scenario, index_t threads) {
  ChildSpec spec;
  spec.threads = threads;
  spec.ckpt_dir = scenario.path("ref_ckpt");
  spec.model_out = scenario.path("ref_model");
  spec.obs_out = scenario.path("ref_obs");
  const ChildResult r = spawn_child(spec, run_shard_child);
  EXPECT_FALSE(r.signaled) << "reference child died on signal " << r.signal;
  EXPECT_EQ(r.exit_code, kOkExit);
  Reference ref;
  ref.model = read_file(spec.model_out);
  ref.obs = read_text(spec.obs_out);
  return ref;
}

void run_shard_crash_seed(const ScratchDir& scenario, const Reference& ref,
                          index_t threads, std::uint64_t seed) {
  common::Rng rng(seed ^ 0x5A4D);
  // 4 rounds × 6 folds = 24 total; stay below so the crash child always dies.
  const auto kill_after =
      rng.uniform_int(1, kShardRounds * kShardCohort - 2);

  const std::string tag = std::string("s").append(std::to_string(seed));
  ChildSpec crash;
  crash.threads = threads;
  crash.ckpt_dir = scenario.path(tag + "_ckpt");
  crash.model_out = scenario.path(tag + "_crash_model");
  crash.obs_out = scenario.path(tag + "_crash_obs");
  crash.arm_kill = true;
  crash.kill_offset = kill_after;
  const ChildResult crashed = spawn_child(crash, run_shard_child);
  ASSERT_TRUE(crashed.signaled)
      << "seed " << seed << ": crash child exited " << crashed.exit_code
      << " instead of dying after " << kill_after << " folds";
  ASSERT_EQ(crashed.signal, SIGKILL) << "seed " << seed;

  ChildSpec resume;
  resume.threads = threads;
  resume.ckpt_dir = crash.ckpt_dir;  // same directory: whatever survived
  resume.model_out = scenario.path(tag + "_resume_model");
  resume.obs_out = scenario.path(tag + "_resume_obs");
  const ChildResult resumed = spawn_child(resume, run_shard_child);
  ASSERT_FALSE(resumed.signaled)
      << "seed " << seed << ": resume child died on signal " << resumed.signal;
  ASSERT_EQ(resumed.exit_code, kOkExit)
      << "seed " << seed << " (killed after " << kill_after << " folds)";

  EXPECT_EQ(read_file(resume.model_out), ref.model)
      << "seed " << seed
      << ": final model bytes diverged after mid-shard SIGKILL at fold "
      << kill_after;
  EXPECT_EQ(read_text(resume.obs_out), ref.obs)
      << "seed " << seed << ": obs dump diverged after mid-shard SIGKILL";
}

void run_shard_sweep(const std::string& tag, index_t threads, std::uint64_t lo,
                     std::uint64_t hi) {
  ScratchDir scenario("crash_" + tag);
  const Reference ref = run_shard_reference(scenario, threads);
  ASSERT_FALSE(ref.model.empty());
  for (std::uint64_t seed = lo; seed < hi; ++seed) {
    run_shard_crash_seed(scenario, ref, threads, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// 100 seeds per thread count, split into 25-seed shards to stay inside the
// per-test CI timeout. Seed ranges are disjoint so the sweep covers 100
// DISTINCT kill points at each thread count.

TEST(CrashResume, Serial_Seeds0To24) { run_sweep("t1a", 1, 0, 25); }
TEST(CrashResume, Serial_Seeds25To49) { run_sweep("t1b", 1, 25, 50); }
TEST(CrashResume, Serial_Seeds50To74) { run_sweep("t1c", 1, 50, 75); }
TEST(CrashResume, Serial_Seeds75To99) { run_sweep("t1d", 1, 75, 100); }

TEST(CrashResume, Threads8_Seeds0To24) { run_sweep("t8a", 8, 0, 25); }
TEST(CrashResume, Threads8_Seeds25To49) { run_sweep("t8b", 8, 25, 50); }
TEST(CrashResume, Threads8_Seeds50To74) { run_sweep("t8c", 8, 50, 75); }
TEST(CrashResume, Threads8_Seeds75To99) { run_sweep("t8d", 8, 75, 100); }

// Mid-shard SIGKILL sweep for the sharded engine: 50 distinct kill points
// serial, 25 at 8 threads, in 25-seed shards for the per-test CI timeout.

TEST(ShardCrashResume, Serial_Seeds0To24) { run_shard_sweep("sh1a", 1, 0, 25); }
TEST(ShardCrashResume, Serial_Seeds25To49) {
  run_shard_sweep("sh1b", 1, 25, 50);
}
TEST(ShardCrashResume, Threads8_Seeds0To24) {
  run_shard_sweep("sh8a", 8, 0, 25);
}

// The sharded references must agree across thread counts too.
TEST(ShardCrashResume, ReferencesAgreeAcrossThreadCounts) {
  ScratchDir s1("crash_shref1");
  ScratchDir s8("crash_shref8");
  const Reference a = run_shard_reference(s1, 1);
  const Reference b = run_shard_reference(s8, 8);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.obs, b.obs);
}

// The serial and 8-thread references themselves must agree: checkpointing
// must not break the runtime's thread-count determinism contract.
TEST(CrashResume, ReferencesAgreeAcrossThreadCounts) {
  ScratchDir s1("crash_ref1");
  ScratchDir s8("crash_ref8");
  const Reference a = run_reference(s1, 1);
  const Reference b = run_reference(s8, 8);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.obs, b.obs);
  EXPECT_EQ(a.snapshot_size, b.snapshot_size);
}

}  // namespace
}  // namespace oasis::ckpt
