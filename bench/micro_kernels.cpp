// Micro-benchmarks (google-benchmark) for the numeric kernels the
// experiments lean on: matmul variants, im2col, affine warps, PSNR, the
// attack implant/reconstruct paths, and the integrity/codec path (CRC32C,
// serialize_tensors) at the three round-benchmark update sizes. Not a paper
// figure — an engineering baseline for regressions.
//
// Before the google-benchmark suite runs, a serial-vs-parallel thread sweep
// times the pool-dispatched kernels (GEMM, conv forward/backward) at several
// thread counts and writes the speedup table to
// bench_out/micro_kernels_threads.json. `--threads N` selects the pool size
// for the benchmark suite itself and is swept as the top count.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "attack/cah.h"
#include "attack/rtf.h"
#include "augment/affine.h"
#include "bench_common.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "metrics/psnr.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace {

using namespace oasis;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  common::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulTn(benchmark::State& state) {
  const auto n = static_cast<index_t>(state.range(0));
  common::Rng rng(2);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_tn(a, b));
  }
}
BENCHMARK(BM_MatmulTn)->Arg(128);

void BM_Im2Col(benchmark::State& state) {
  common::Rng rng(3);
  const tensor::Tensor img = tensor::Tensor::randn({16, 32, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::im2col(img, 3, 3, 1, 1));
  }
}
BENCHMARK(BM_Im2Col);

void BM_WarpRotate(benchmark::State& state) {
  common::Rng rng(4);
  const tensor::Tensor img = tensor::Tensor::rand({3, 64, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(augment::rotate(img, 0.5));
  }
}
BENCHMARK(BM_WarpRotate);

void BM_ExactRotate90(benchmark::State& state) {
  common::Rng rng(5);
  const tensor::Tensor img = tensor::Tensor::rand({3, 64, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(augment::rotate90(img));
  }
}
BENCHMARK(BM_ExactRotate90);

void BM_Psnr(benchmark::State& state) {
  common::Rng rng(6);
  const tensor::Tensor a = tensor::Tensor::rand({3, 64, 64}, rng);
  const tensor::Tensor b = tensor::Tensor::rand({3, 64, 64}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::psnr(a, b));
  }
}
BENCHMARK(BM_Psnr);

// Update sizes of the round benchmark's workloads: shard_stream (34 KB),
// oasis_convnet (612 KB) and socket_mlp (6.3 MB) uploads.
void update_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(34 << 10)->Arg(612 << 10)->Arg(6'300'000);
}

void BM_Crc32c(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  common::Rng rng(8);
  std::vector<std::uint8_t> buf(bytes);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = common::crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32c)->Apply(update_sizes);

// One rank-1 tensor of the update's size: header bytes are negligible, so
// this times the copy + CRC that every upload pays.
void BM_SerializeTensors(benchmark::State& state) {
  const auto bytes = static_cast<index_t>(state.range(0));
  common::Rng rng(9);
  const std::vector<tensor::Tensor> ts{
      tensor::Tensor::randn({bytes / static_cast<index_t>(sizeof(real))}, rng)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::serialize_tensors(ts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeTensors)->Apply(update_sizes);

data::InMemoryDataset micro_aux() {
  data::SynthConfig cfg;
  cfg.num_classes = 10;
  cfg.height = cfg.width = 32;
  cfg.train_per_class = 8;
  cfg.test_per_class = 0;
  cfg.seed = 77;
  return data::generate(cfg).train;
}

void BM_RtfImplant(benchmark::State& state) {
  const auto aux = micro_aux();
  const nn::ImageSpec spec{3, 32, 32};
  attack::RtfAttack atk(spec, 256, aux);
  common::Rng rng(7);
  auto host = nn::make_attack_host(spec, 256, 10, rng);
  for (auto _ : state) {
    atk.implant(*host);
  }
}
BENCHMARK(BM_RtfImplant);

void BM_RtfReconstruct(benchmark::State& state) {
  const auto aux = micro_aux();
  const nn::ImageSpec spec{3, 32, 32};
  const index_t n = 256;
  attack::RtfAttack atk(spec, n, aux);
  common::Rng rng(8);
  auto host = nn::make_attack_host(spec, n, 10, rng);
  atk.implant(*host);
  // One real gradient computation to invert.
  std::vector<index_t> idx{0, 1, 2, 3};
  const data::Batch b = data::gather(aux, idx);
  host->zero_grad();
  nn::SoftmaxCrossEntropy loss_fn;
  const auto logits = host->forward(b.images, true);
  host->backward(loss_fn.compute(logits, b.labels).grad_logits);
  const auto grads = nn::snapshot_gradients(*host);
  for (auto _ : state) {
    benchmark::DoNotOptimize(atk.reconstruct(grads));
  }
}
BENCHMARK(BM_RtfReconstruct);

void BM_CahCalibration(benchmark::State& state) {
  const auto aux = micro_aux();
  const nn::ImageSpec spec{3, 32, 32};
  for (auto _ : state) {
    attack::CahAttack atk(spec, 64, 0.125, aux);
    benchmark::DoNotOptimize(&atk);
  }
}
BENCHMARK(BM_CahCalibration);

// Extracts `--threads N` / `--threads=N` from argv (google-benchmark rejects
// flags it does not know) and returns the requested count, 0 = automatic.
index_t take_threads_flag(int& argc, char** argv) {
  index_t threads = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--threads" && i + 1 < argc) {
      value = argv[++i];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(std::strlen("--threads="));
    } else {
      argv[out++] = argv[i];
      continue;
    }
    threads = static_cast<index_t>(std::strtoul(value.c_str(), nullptr, 10));
  }
  argc = out;
  return threads;
}

// Extracts `--metrics-out PATH` / `--metrics-out=PATH`; "" = disabled.
std::string take_metrics_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      path = arg.substr(std::strlen("--metrics-out="));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

void run_thread_sweeps(index_t top) {
  using bench::ThreadSweepRow;
  std::vector<index_t> counts{1};
  for (index_t t = 2; t <= std::max<index_t>(top, 4); t *= 2) {
    counts.push_back(t);
  }
  if (top > 1 && std::find(counts.begin(), counts.end(), top) == counts.end()) {
    counts.push_back(top);
  }

  common::Rng rng(42);
  const tensor::Tensor a = tensor::Tensor::randn({192, 192}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({192, 192}, rng);
  const tensor::Tensor x = tensor::Tensor::randn({8, 3, 32, 32}, rng);
  nn::Conv2d conv(3, 16, 3, 1, 1, rng);
  const tensor::Tensor y = conv.forward(x, true);
  tensor::Tensor gy(y.shape());
  for (auto& g : gy.data()) g = 1.0;

  std::printf("serial-vs-parallel thread sweep (pool dispatched kernels)\n");
  // One span per sweep phase; the workload per phase is fixed (counts ×
  // reps), so every counter the kernels bump below is thread-count
  // invariant even though the span nanoseconds are not.
  const obs::ScopedTimer sweep_span("micro.sweep");
  std::vector<std::pair<std::string, std::vector<ThreadSweepRow>>> sweeps;
  {
    const obs::ScopedTimer s("gemm_192");
    sweeps.emplace_back("gemm_192", bench::run_thread_sweep(
        "gemm_192", counts, [&] { tensor::matmul(a, b); }));
  }
  {
    const obs::ScopedTimer s("conv2d_forward");
    sweeps.emplace_back("conv2d_forward", bench::run_thread_sweep(
        "conv2d_forward", counts, [&] { conv.forward(x, true); }));
  }
  {
    const obs::ScopedTimer s("conv2d_backward");
    sweeps.emplace_back("conv2d_backward", bench::run_thread_sweep(
        "conv2d_backward", counts, [&] {
          conv.zero_grad();
          conv.backward(gy);
        }));
  }
  bench::write_thread_sweep_json(
      bench::ensure_output_dir() + "/micro_kernels_threads.json", sweeps);
}

// dtype × ISA × threads GEMM sweep: times the blocked kernel family on
// square multiplies under every ISA available on this host, for both the
// double fidelity dtype and the float scale dtype, at 1 thread and the pool
// size, against the same-dtype naive oracle and the scalar-f64 blocked
// baseline. The table goes to bench_out/BENCH_gemm.json — the acceptance
// artifact for the kernel layer (DESIGN.md §5f/§5k): the differential tests
// prove the bits match, this records how much faster each variant is.
struct GemmSweepRow {
  const char* dtype;
  std::string isa;
  const char* variant;
  index_t n, threads;
  double naive_s, blocked_s, scalar_f64_s;
};

template <typename T>
double time_gemm_best(tensor::gemm::Variant v, index_t n, const std::vector<T>& a,
                      const std::vector<T>& b, std::vector<T>& c, int reps,
                      bool naive) {
  using Clock = std::chrono::steady_clock;
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    std::fill(c.begin(), c.end(), T(0));
    const auto t0 = Clock::now();
    if (naive) {
      tensor::gemm::naive(v, n, n, n, a.data(), b.data(), c.data());
    } else {
      tensor::gemm::blocked(v, n, n, n, a.data(), b.data(), c.data());
    }
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

template <typename T>
void gemm_sweep_dtype(const char* dtype, const std::vector<index_t>& counts,
                      std::vector<GemmSweepRow>& rows) {
  const index_t sizes[] = {256, 512, 1024};
  const std::pair<tensor::gemm::Variant, const char*> variants[] = {
      {tensor::gemm::Variant::NN, "nn"},
      {tensor::gemm::Variant::TN, "tn"},
      {tensor::gemm::Variant::NT, "nt"},
  };
  common::Rng rng(4242);
  for (const auto& [variant, vname] : variants) {
    for (const index_t n : sizes) {
      std::vector<T> a(n * n), b(n * n), c(n * n);
      for (auto& v : a) v = static_cast<T>(rng.uniform(-1.0, 1.0));
      for (auto& v : b) v = static_cast<T>(rng.uniform(-1.0, 1.0));
      const int reps = n >= 1024 ? 2 : 3;
      // Baselines, both single-threaded: the same-dtype naive oracle and
      // the scalar-f64 blocked kernel (the pre-SIMD reference everything is
      // normalized against; re-timed per dtype loop, cheap next to naive).
      runtime::set_num_threads(1);
      const double naive_s = time_gemm_best(variant, n, a, b, c, reps, true);
      tensor::gemm::set_isa(tensor::gemm::Isa::kScalar);
      double scalar_f64_s;
      {
        std::vector<real> a64(a.begin(), a.end()), b64(b.begin(), b.end());
        std::vector<real> c64(n * n);
        scalar_f64_s = time_gemm_best(variant, n, a64, b64, c64, reps, false);
      }
      for (const auto isa : tensor::gemm::available_isas()) {
        tensor::gemm::set_isa(isa);
        for (const index_t threads : counts) {
          runtime::set_num_threads(threads);
          const double blocked_s =
              time_gemm_best(variant, n, a, b, c, reps, false);
          rows.push_back({dtype, tensor::gemm::isa_name(isa), vname, n,
                          threads, naive_s, blocked_s, scalar_f64_s});
          const double flops = 2.0 * static_cast<double>(n) * n * n;
          std::printf(
              "  %-3s %-6s %-3s %6zu %8zu %12.4f %12.4f %8.2fx %8.2fx %8.1f\n",
              dtype, tensor::gemm::isa_name(isa), vname,
              static_cast<std::size_t>(n), static_cast<std::size_t>(threads),
              naive_s, blocked_s, naive_s / blocked_s,
              scalar_f64_s / blocked_s, flops / blocked_s * 1e-9);
        }
      }
    }
  }
}

void run_gemm_sweep(index_t top) {
  std::vector<index_t> counts{1};
  const index_t threaded = top > 1 ? top : 8;
  if (threaded > 1) counts.push_back(threaded);

  const tensor::gemm::Isa default_isa = tensor::gemm::active_isa();
  std::vector<GemmSweepRow> rows;
  std::printf(
      "blocked GEMM sweep: dtype x ISA x threads (square n^3 multiplies)\n");
  std::printf("  %-3s %-6s %-3s %6s %8s %12s %12s %9s %9s %8s\n", "dt", "isa",
              "var", "n", "threads", "naive_s", "blocked_s", "vs_nai",
              "vs_s64", "GF/s");
  gemm_sweep_dtype<real>("f64", counts, rows);
  gemm_sweep_dtype<real32>("f32", counts, rows);
  tensor::gemm::set_isa(default_isa);
  runtime::set_num_threads(0);

  const std::string path = bench::ensure_output_dir() + "/BENCH_gemm.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"gemm_dtype_isa_threads\",\n");
  std::fprintf(f, "  \"host\": {\"default_isa\": \"%s\", \"isas\": [",
               tensor::gemm::isa_name(default_isa));
  bool first = true;
  for (const auto isa : tensor::gemm::available_isas()) {
    std::fprintf(f, "%s\"%s\"", first ? "" : ", ",
                 tensor::gemm::isa_name(isa));
    first = false;
  }
  std::fprintf(f, "]},\n  \"rows\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GemmSweepRow& r = rows[i];
    const double flops = 2.0 * static_cast<double>(r.n) * r.n * r.n;
    std::fprintf(
        f,
        "%s\n    {\"dtype\": \"%s\", \"isa\": \"%s\", \"variant\": \"%s\", "
        "\"n\": %zu, \"threads\": %zu, "
        "\"naive_seconds\": %.6f, \"blocked_seconds\": %.6f, "
        "\"speedup_vs_naive\": %.3f, \"speedup_vs_scalar_f64\": %.3f, "
        "\"blocked_gflops\": %.2f}",
        i == 0 ? "" : ",", r.dtype, r.isa.c_str(), r.variant,
        static_cast<std::size_t>(r.n), static_cast<std::size_t>(r.threads),
        r.naive_s, r.blocked_s, r.naive_s / r.blocked_s,
        r.scalar_f64_s / r.blocked_s, flops / r.blocked_s * 1e-9);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const index_t threads = take_threads_flag(argc, argv);
  const std::string metrics_path = take_metrics_flag(argc, argv);
  // The sweep workload is fixed, so its counters (kernel flops/calls) are
  // identical at any --threads value; record it with kernel metrics forced
  // on and dump BEFORE the google-benchmark suite, whose adaptive iteration
  // counts would make the totals run-dependent.
  obs::set_kernel_metrics(true);
  run_thread_sweeps(threads);
  if (!metrics_path.empty()) {
    obs::dump(metrics_path);
    std::printf("[metrics] %s\n", metrics_path.c_str());
  }
  obs::set_kernel_metrics(false);
  run_gemm_sweep(threads);
  runtime::set_num_threads(threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
