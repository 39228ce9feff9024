// Round benchmark entry point.
//
//   roundbench --workload oasis_convnet|shard_stream|socket_mlp
//              --seed N --seconds S --trace 0|1 [--smoke 1]
//
// --trace 0 runs the workload untraced for S seconds (federation after
// federation, closed loop) and prints the end-to-end metrics. --trace 1
// splits S into three passes — traced at 1 thread, untraced and traced at
// the workload's thread count — then replays sampled client rounds layer by
// layer, and prints the per-layer metrics.
// Either way the correctness gate runs in the same process:
//   * every federation's own checks (the reference federation reaches its
//     accuracy target, socket ≡ in-process, checkpoint round trip) and no
//     failed update anywhere;
//   * the model CRC32C after kGateRounds rounds of the first seeded
//     federation is the same untraced at N threads and traced at 1 thread;
//   * (trace) every replayed upload equals Client::handle_round's bytes.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when the gate fails.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "runtime/parallel.h"

namespace roundbench {
namespace {

using namespace oasis;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEndMetrics[] = {
    {"setup_s", "s"},          {"round_ms.p50", "ms"},
    {"round_ms.p90", "ms"},    {"samples_per_s", "1/s"},
    {"time_to_target_s", "s"}, {"peak_rss_mb", "MB"},
};

// Every per-layer metric a traced run reports, on every workload. A layer
// that is not on a workload's round path (a conv layer of the MLP, the
// checkpoint codec without checkpoints, the socket layer in-process) reads 0.
const Metric kLayerMetrics[] = {
    {"tensor.gemm.calls_per_client", "count"},
    {"tensor.im2col.calls_per_client", "count"},
    {"tensor.col2im.calls_per_client", "count"},
    {"tensor.gemm.gflop_per_client", "GFLOP"},
    {"tensor.serialize_ms", "ms"},
    {"tensor.deserialize_ms", "ms"},
    {"common.crc32c_gb_per_s", "GB/s"},
    {"nn.0.conv2d.fwd_ms", "ms"},
    {"nn.0.conv2d.bwd_ms", "ms"},
    {"nn.1.relu.fwd_ms", "ms"},
    {"nn.1.relu.bwd_ms", "ms"},
    {"nn.2.maxpool2d.fwd_ms", "ms"},
    {"nn.2.maxpool2d.bwd_ms", "ms"},
    {"nn.3.conv2d.fwd_ms", "ms"},
    {"nn.3.conv2d.bwd_ms", "ms"},
    {"nn.4.relu.fwd_ms", "ms"},
    {"nn.4.relu.bwd_ms", "ms"},
    {"nn.5.maxpool2d.fwd_ms", "ms"},
    {"nn.5.maxpool2d.bwd_ms", "ms"},
    {"nn.6.flatten.fwd_ms", "ms"},
    {"nn.6.flatten.bwd_ms", "ms"},
    {"nn.7.dense.fwd_ms", "ms"},
    {"nn.7.dense.bwd_ms", "ms"},
    {"nn.8.relu.fwd_ms", "ms"},
    {"nn.8.relu.bwd_ms", "ms"},
    {"nn.9.dense.fwd_ms", "ms"},
    {"nn.9.dense.bwd_ms", "ms"},
    {"nn.0.flatten.fwd_ms", "ms"},
    {"nn.0.flatten.bwd_ms", "ms"},
    {"nn.1.dense.fwd_ms", "ms"},
    {"nn.1.dense.bwd_ms", "ms"},
    {"nn.2.relu.fwd_ms", "ms"},
    {"nn.2.relu.bwd_ms", "ms"},
    {"nn.3.dense.fwd_ms", "ms"},
    {"nn.3.dense.bwd_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"nn.load_state_ms", "ms"},
    {"nn.snapshot_gradients_ms", "ms"},
    {"runtime.client_round_ms.t1", "ms"},
    {"runtime.client_round_ms.tN", "ms"},
    {"runtime.client_slowdown", "ratio"},
    {"augment.process_ms", "ms"},
    {"augment.samples_out", "count"},
    {"attack.audit_ms", "ms"},
    {"attack.audit_refused", "count"},
    {"data.gather_ms", "ms"},
    {"data.generate_s", "s"},
    {"fl.dispatch_ms", "ms"},
    {"fl.screen_ms", "ms"},
    {"fl.fold_ms", "ms"},
    {"fl.commit_ms", "ms"},
    {"fl.defense_ms", "ms"},
    {"fl.make_client_ms", "ms"},
    {"fl.serial_share", "ratio"},
    {"fl.accept_ratio", "ratio"},
    {"fl.bytes_per_update", "bytes"},
    {"ckpt.encode_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"net.round_latency_ms.p50", "ms"},
    {"net.client_step_ms", "ms"},
    {"net.bytes_per_round", "bytes"},
    {"net.frames_per_round", "count"},
    {"net.useful_frame_ratio", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"failed_frac", "ratio"},
};

using Values = std::map<std::string, double>;

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw ConfigError("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--smoke") {
      opts.smoke = value == "1";
    } else {
      throw ConfigError("unknown flag " + key);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  opts.nproc = hw == 0 ? 1 : hw;
  return opts;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "oasis_convnet") return make_oasis_convnet(opts);
  if (opts.workload == "shard_stream") return make_shard_stream(opts);
  if (opts.workload == "socket_mlp") return make_socket_mlp(opts);
  throw ConfigError("unknown workload '" + opts.workload + "'");
}

// Federations run back to back until `budget_s` has passed. Seeded
// federations have a fixed length. An end-to-end phase alternates them with
// the workload's reference federation, which trains until its accuracy
// target: its rounds-to-target never changes, so the median of its time to
// target moves only with round time. Peak RSS is read after the first pair,
// so it covers a fixed amount of work.
struct Phase {
  std::vector<FederationResult> federations;
  std::vector<double> time_to_target_s;  // per reference federation
  double peak_rss_mb = 0.0;
  std::uint64_t accepted = 0;  // fl.validate.accepted over the phase
  std::uint64_t screened = 0;  // accepted + rejected over the phase

  [[nodiscard]] std::vector<double> round_ms() const {
    std::vector<double> all;
    for (const auto& f : federations) {
      all.insert(all.end(), f.round_ms.begin(), f.round_ms.end());
    }
    return all;
  }
};

// Rounds per seeded federation in end-to-end and in traced passes.
constexpr index_t kSeededRounds = 10;
constexpr index_t kTracedRounds = 4;

Phase run_phase(Workload& workload, const Options& opts, index_t threads,
                double budget_s, Probes* probes, bool end_to_end) {
  runtime::set_num_threads(threads);
  obs::set_kernel_metrics(probes != nullptr);
  const std::uint64_t accepted0 = counter_value("fl.validate.accepted");
  const std::uint64_t rejected0 = counter_value("fl.validate.rejected");
  const index_t seeded_rounds = end_to_end ? kSeededRounds : kTracedRounds;
  Phase phase;
  const auto t0 = Clock::now();
  double last_end_s = 0.0;
  const auto run = [&](const char* label, std::uint64_t fed_seed,
                       index_t rounds) {
    phase.federations.push_back(
        workload.run_federation(fed_seed, RunContext{probes, rounds}));
    const FederationResult& f = phase.federations.back();
    std::cerr << "[roundbench] " << label << " federation: "
              << f.round_ms.size() << " rounds (median "
              << median(f.round_ms) << " ms), setup " << f.setup_s
              << " s, to target " << f.time_to_target_s << " s\n";
  };
  for (std::uint64_t j = 0;; ++j) {
    run("seeded", mix_seed(opts.seed, j), seeded_rounds);
    if (end_to_end) {
      run("reference", kReferenceFederation, 0);
      phase.time_to_target_s.push_back(
          phase.federations.back().time_to_target_s);
      if (j == 0) phase.peak_rss_mb = peak_rss_mb();
    }
    // Stop when the next iteration, if it lasts as long as this one, would
    // end more than 20% past the budget.
    const double end_s = ms_since(t0) / 1e3;
    const double next_end_s = end_s + (end_s - last_end_s);
    last_end_s = end_s;
    if (opts.smoke || end_s >= budget_s || next_end_s > 1.2 * budget_s) break;
  }
  phase.accepted = counter_value("fl.validate.accepted") - accepted0;
  phase.screened =
      phase.accepted + (counter_value("fl.validate.rejected") - rejected0);
  obs::set_kernel_metrics(false);
  return phase;
}

// Folds a phase's federation checks into the gate.
void check_phase(const Phase& phase, std::vector<std::string>& violations,
                 std::uint64_t& attempted, std::uint64_t& failed) {
  for (const auto& f : phase.federations) {
    violations.insert(violations.end(), f.violations.begin(),
                      f.violations.end());
    attempted += f.attempted;
    failed += f.failed;
  }
}

void check_gate(std::uint32_t untraced, std::uint32_t traced,
                std::vector<std::string>& violations) {
  if (untraced != traced) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "determinism: model CRC32C %08x at N threads untraced vs "
                  "%08x at 1 thread traced",
                  untraced, traced);
    violations.emplace_back(buf);
  }
}

Values end_to_end(const Phase& phase) {
  const std::vector<double> rounds = phase.round_ms();
  double round_s = 0.0;
  double samples = 0.0;
  std::vector<double> setup;
  for (const auto& f : phase.federations) {
    for (const double ms : f.round_ms) round_s += ms / 1e3;
    samples += f.samples;
    setup.push_back(f.setup_s);
  }
  return {
      {"setup_s", median(setup)},
      {"round_ms.p50", quantile(rounds, 0.5)},
      {"round_ms.p90", quantile(rounds, 0.9)},
      {"samples_per_s", round_s > 0.0 ? samples / round_s : 0.0},
      {"time_to_target_s", median(phase.time_to_target_s)},
      {"peak_rss_mb", phase.peak_rss_mb},
  };
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Values per_layer(const Phase& untraced, const Probes& p1, const Phase& traced,
                 const Probes& pn, const Probes& replay) {
  Values v;
  // Layer-by-layer replay (1 thread): medians over the sampled clients.
  for (const auto& name : replay.names()) v[name] = replay.median(name);
  v["tensor.gemm.gflop_per_client"] =
      replay.median("tensor.gemm.flops_per_client") / 1e9;
  // The traced run at the workload's thread count.
  for (const char* name :
       {"augment.process_ms", "augment.samples_out", "attack.audit_ms",
        "ckpt.encode_ms", "ckpt.restore_ms", "ckpt.bytes",
        "net.client_step_ms", "net.bytes_per_round", "net.frames_per_round",
        "net.useful_frame_ratio"}) {
    v[name] = pn.mean(name);
  }
  if (pn.count("fl.make_client_ms") > 0) {
    v["fl.make_client_ms"] = pn.mean("fl.make_client_ms");
  }
  v["attack.audit_refused"] = pn.total("attack.audit_refused");
  v["net.round_latency_ms.p50"] = pn.median("net.round_latency_ms");
  std::vector<double> generate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& f : traced.federations) {
    generate.push_back(f.generate_s);
    attempted += f.attempted;
    failed += f.failed;
  }
  v["data.generate_s"] = median(generate);
  v["failed_frac"] = ratio(static_cast<double>(failed),
                           static_cast<double>(attempted));
  v["fl.accept_ratio"] = ratio(static_cast<double>(traced.accepted),
                               static_cast<double>(traced.screened));
  v["fl.serial_share"] =
      ratio(pn.total("engine.aggregate_ms"), pn.total("engine.round_ms"));
  const double t1 = ratio(p1.total("engine.client_round_ms"),
                          p1.total("engine.client_round_count"));
  const double tn = ratio(pn.total("engine.client_round_ms"),
                          pn.total("engine.client_round_count"));
  v["runtime.client_round_ms.t1"] = t1;
  v["runtime.client_round_ms.tN"] = tn;
  v["runtime.client_slowdown"] = ratio(tn, t1);
  v["obs.trace_overhead"] = ratio(quantile(traced.round_ms(), 0.5),
                                  quantile(untraced.round_ms(), 0.5)) -
                            1.0;
  return v;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string, std::string>>& units,
                  const Values& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, unit] : units) {
    const auto it = values.find(name);
    double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Options& opts) {
  const auto workload = make_workload(opts);
  const index_t threads = workload->runtime_threads(opts.nproc);
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> units;
  Values values;

  if (!opts.trace) {
    const Phase phase =
        run_phase(*workload, opts, threads, opts.seconds, nullptr, true);
    values = end_to_end(phase);
    check_phase(phase, violations, attempted, failed);
    // Determinism gate: federation 0 again, traced at 1 thread.
    runtime::set_num_threads(1);
    obs::set_kernel_metrics(true);
    Probes gate_probes;
    const FederationResult gate = workload->run_federation(
        mix_seed(opts.seed, 0), RunContext{&gate_probes, kGateRounds});
    obs::set_kernel_metrics(false);
    violations.insert(violations.end(), gate.violations.begin(),
                      gate.violations.end());
    check_gate(phase.federations.front().gate_crc, gate.gate_crc, violations);
    for (const auto& m : kEndToEndMetrics) units.emplace_back(m.name, m.unit);
    const std::vector<double> rounds = phase.round_ms();
    std::cerr << "[roundbench] " << opts.workload << ": "
              << phase.federations.size() << " federations, " << rounds.size()
              << " rounds; round ms p10 " << quantile(rounds, 0.1) << ", p50 "
              << quantile(rounds, 0.5) << ", p90 " << quantile(rounds, 0.9)
              << ", max " << quantile(rounds, 1.0) << "\n";
  } else {
    const double third = opts.seconds / 3.0;
    // The 1-thread pass goes first and also warms the process up, so the
    // untraced and traced N-thread passes that obs.trace_overhead compares
    // run back to back under the same conditions.
    Probes p1;
    const Phase serial = run_phase(*workload, opts, 1, third, &p1, false);
    const Phase untraced =
        run_phase(*workload, opts, threads, third, nullptr, false);
    Probes pn;
    const Phase traced = run_phase(*workload, opts, threads, third, &pn, false);
    check_phase(untraced, violations, attempted, failed);
    check_phase(serial, violations, attempted, failed);
    check_phase(traced, violations, attempted, failed);
    check_gate(untraced.federations.front().gate_crc,
               serial.federations.front().gate_crc, violations);

    runtime::set_num_threads(1);
    obs::set_kernel_metrics(true);
    Probes replay;
    replay_round(workload->replay_spec(mix_seed(opts.seed, 0), replay), replay,
                 violations);
    obs::set_kernel_metrics(false);

    values = per_layer(untraced, p1, traced, pn, replay);
    std::set<std::string> known;
    for (const auto& m : kLayerMetrics) {
      units.emplace_back(m.name, m.unit);
      known.insert(m.name);
    }
    for (const auto& name : replay.names()) {
      if (name.rfind("nn.", 0) == 0 && known.count(name) == 0) {
        violations.push_back("replay produced unregistered metric " + name);
      }
    }
  }

  for (const auto& v : violations) {
    std::cerr << "[roundbench] FAIL " << v << "\n";
  }
  const bool correct = violations.empty() && failed == 0;
  print_result(correct, attempted, failed, units, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  try {
    return roundbench::run(roundbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "roundbench: " << e.what() << "\n";
    return 2;
  }
}
