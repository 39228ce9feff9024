// Micro-benchmarks (google-benchmark) for the numeric kernels the
// experiments lean on: matmul, im2col, affine warps, PSNR, the
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

void BM_Im2Col(benchmark::State& state) {
  common::Rng rng(3);
  const tensor::Tensor img = tensor::Tensor::randn({16, 32, 32}, rng);
  std::vector<real> panels(
      tensor::gemm::packed_a_size(16 * 3 * 3, index_t{32} * 32));
  for (auto _ : state) {
    tensor::im2col_packed(img.data().data(), 16, 32, 32, 3, 1, 1,
                          panels.data());
    benchmark::DoNotOptimize(panels.data());
    benchmark::ClobberMemory();
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

// Threads GEMM sweep: times the blocked kernel at 1 thread and the pool
// size against the 1-thread naive oracle. Two shape sets: square cubes in
// each variant, and the exact GEMMs the round benchmark's workloads issue
// (in the variant, or through the packed entry, the layer calls). The cubes
// alone once hid a 3× loss on the conv shapes, whose small m leaves most
// register tiles ragged. The table goes to bench_out/BENCH_gemm.json — the
// acceptance artifact for the kernel layer (DESIGN.md §5f/§5k): the
// differential tests prove the bits match, this records how much faster the
// blocked path is. It runs as the BM_GemmSweep benchmark, so a
// --benchmark_filter that does not select it leaves the file alone.
struct GemmShape {
  const char* name;
  tensor::gemm::Variant variant;
  index_t m, k, n;
  /// Timed through gemm::run_packed on pre-packed operands (row-major A·B),
  /// as Conv2d issues its forward and weight-gradient products.
  bool packed = false;
};

const char* variant_name(const GemmShape& s) {
  if (s.packed) return "packed";
  switch (s.variant) {
    case tensor::gemm::Variant::NN: return "nn";
    case tensor::gemm::Variant::TN: return "tn";
    case tensor::gemm::Variant::NT: return "nt";
  }
  return "?";
}

std::vector<GemmShape> gemm_sweep_shapes() {
  using tensor::gemm::Variant;
  std::vector<GemmShape> shapes;
  for (const Variant v : {Variant::NN, Variant::TN, Variant::NT}) {
    for (const index_t n : {256, 512, 1024}) {
      shapes.push_back({"cube", v, n, n, n});
    }
  }
  // Conv2d's forward (outᵀ = colsᵀ·Wᵀ) and weight gradient (gWᵀ = cols·gyᵀ)
  // run per sample on lowered panels, roles swapped so the pixels fill the
  // register tiles.
  const GemmShape workload[] = {
      {"conv0_fwd", Variant::NN, 576, 27, 8, true},
      {"conv0_grad_w", Variant::NN, 27, 576, 8, true},
      {"conv0_grad_x", Variant::TN, 27, 8, 576},
      {"conv1_fwd", Variant::NN, 144, 72, 16, true},
      {"conv1_grad_w", Variant::NN, 72, 144, 16, true},
      {"conv1_grad_x", Variant::TN, 72, 16, 144},
      {"mlp_dense0_fwd", Variant::NT, 32, 3072, 256},
      {"mlp_dense0_grad_w", Variant::TN, 256, 32, 3072},
      {"mlp_dense0_grad_x", Variant::NN, 32, 256, 3072},
      {"mlp_dense1_fwd", Variant::NT, 32, 256, 10},
      {"mlp_dense1_grad_w", Variant::TN, 10, 32, 256},
      {"mlp_dense1_grad_x", Variant::NN, 32, 10, 256},
      {"linear_fwd", Variant::NT, 4, 432, 10},
  };
  shapes.insert(shapes.end(), std::begin(workload), std::end(workload));
  return shapes;
}

struct GemmSweepRow {
  GemmShape shape;
  index_t threads;
  double naive_s, blocked_s;
};

double gemm_flops(const GemmShape& s) {
  return 2.0 * static_cast<double>(s.m) * s.k * s.n;
}

/// Best-of-N repetitions: 2–3 for the cubes, up to 300 for the small
/// workload GEMMs so the best rep is not one timer tick.
int gemm_reps(const GemmShape& s) {
  const double flops = gemm_flops(s);
  if (flops >= 2e9) return 2;
  return static_cast<int>(std::clamp(1e8 / flops, 3.0, 300.0));
}

/// Row-major m×k A in gemm's packed-A panel layout (rows past m zero).
std::vector<real> pack_a(const std::vector<real>& a, index_t m, index_t k) {
  using tensor::gemm::kMR;
  std::vector<real> ap(tensor::gemm::packed_a_size(m, k), 0.0);
  for (index_t i = 0; i < m; ++i) {
    for (index_t kk = 0; kk < k; ++kk) {
      ap[((i / kMR) * k + kk) * kMR + i % kMR] = a[i * k + kk];
    }
  }
  return ap;
}

double time_gemm_best(const GemmShape& s, const std::vector<real>& a,
                      const std::vector<real>& b, std::vector<real>& c,
                      bool naive) {
  using Clock = std::chrono::steady_clock;
  std::vector<real> ap, bp;
  if (s.packed && !naive) {
    ap = pack_a(a, s.m, s.k);
    bp.resize(tensor::gemm::packed_b_size(s.k, s.n));
    tensor::gemm::pack_b(s.variant, s.k, s.n, b.data(), bp.data());
  }
  double best = 1e100;
  for (int rep = 0, reps = gemm_reps(s); rep < reps; ++rep) {
    std::fill(c.begin(), c.end(), 0.0);
    const auto t0 = Clock::now();
    if (naive) {
      tensor::gemm::naive(s.variant, s.m, s.k, s.n, a.data(), b.data(),
                          c.data());
    } else if (s.packed) {
      tensor::gemm::run_packed(s.m, s.k, s.n, ap.data(), bp.data(), c.data());
    } else {
      tensor::gemm::blocked(s.variant, s.m, s.k, s.n, a.data(), b.data(),
                            c.data());
    }
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

void gemm_sweep(const std::vector<index_t>& counts,
                std::vector<GemmSweepRow>& rows) {
  common::Rng rng(4242);
  for (const GemmShape& s : gemm_sweep_shapes()) {
    std::vector<real> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    // The baseline is the single-threaded naive oracle.
    runtime::set_num_threads(1);
    const double naive_s = time_gemm_best(s, a, b, c, true);
    for (const index_t threads : counts) {
      runtime::set_num_threads(threads);
      const double blocked_s = time_gemm_best(s, a, b, c, false);
      rows.push_back({s, threads, naive_s, blocked_s});
      std::printf("  %-17s %-3s %4zux%4zux%4zu %3zu %10.6f %10.6f %7.2fx "
                  "%6.1f\n",
                  s.name, variant_name(s),
                  static_cast<std::size_t>(s.m),
                  static_cast<std::size_t>(s.k),
                  static_cast<std::size_t>(s.n),
                  static_cast<std::size_t>(threads), naive_s, blocked_s,
                  naive_s / blocked_s, gemm_flops(s) / blocked_s * 1e-9);
    }
  }
}

void run_gemm_sweep(index_t top) {
  std::vector<index_t> counts{1};
  const index_t threaded = top > 1 ? top : 8;
  if (threaded > 1) counts.push_back(threaded);

  std::vector<GemmSweepRow> rows;
  std::printf("blocked GEMM sweep: threads (cubes + workload shapes)\n");
  std::printf("  %-17s %-3s %14s %3s %10s %10s %8s %6s\n", "shape", "var",
              "m x k x n", "thr", "naive_s", "blocked_s", "vs_nai", "GF/s");
  gemm_sweep(counts, rows);
  runtime::set_num_threads(0);

  const std::string path = bench::ensure_output_dir() + "/BENCH_gemm.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"gemm_threads\",\n  \"rows\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GemmSweepRow& r = rows[i];
    std::fprintf(
        f,
        "%s\n    {\"shape\": \"%s\", "
        "\"variant\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, "
        "\"threads\": %zu, "
        "\"naive_seconds\": %.6f, \"blocked_seconds\": %.6f, "
        "\"speedup_vs_naive\": %.3f, \"blocked_gflops\": %.2f}",
        i == 0 ? "" : ",", r.shape.name,
        variant_name(r.shape), static_cast<std::size_t>(r.shape.m),
        static_cast<std::size_t>(r.shape.k),
        static_cast<std::size_t>(r.shape.n),
        static_cast<std::size_t>(r.threads), r.naive_s, r.blocked_s,
        r.naive_s / r.blocked_s, gemm_flops(r.shape) / r.blocked_s * 1e-9);
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
  runtime::set_num_threads(threads);
  benchmark::RegisterBenchmark("BM_GemmSweep",
                               [threads](benchmark::State& state) {
                                 for (auto _ : state) run_gemm_sweep(threads);
                                 runtime::set_num_threads(threads);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
