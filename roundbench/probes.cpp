// Measurement helpers and the bench-side wrappers around the augment and
// attack layers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/crc32c.h"
#include "common/error.h"
#include "nn/model_io.h"

namespace roundbench {

using namespace oasis;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint32_t model_crc(nn::Module& model) {
  const tensor::ByteBuffer bytes = nn::serialize_state(model);
  return common::crc32c(bytes.data(), bytes.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

FederationSeeds federation_seeds(std::uint64_t fed_seed,
                                 std::uint64_t reference_data_seed) {
  if (fed_seed == kReferenceFederation) {
    return {reference_data_seed, 7, 3, 1000};
  }
  return {mix_seed(fed_seed, 1), mix_seed(fed_seed, 2), mix_seed(fed_seed, 3),
          mix_seed(fed_seed, 4)};
}

std::uint64_t counter_value(const std::string& name) {
  return obs::counter(name).value();
}

void Probes::add(const std::string& name, double value) {
  std::lock_guard lock(mu_);
  values_[name].push_back(value);
}

double Probes::mean(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Probes::median(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : roundbench::median(it->second);
}

double Probes::total(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = values_.find(name);
  double sum = 0.0;
  if (it != values_.end()) {
    for (const double v : it->second) sum += v;
  }
  return sum;
}

std::uint64_t Probes::count(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.size();
}

std::vector<std::string> Probes::names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, v] : values_) out.push_back(name);
  return out;
}

Timed::Timed(Probes* probes, std::string name)
    : probes_(probes), name_(std::move(name)), start_(Clock::now()) {}

Timed::~Timed() {
  if (probes_ != nullptr) probes_->add(name_, ms_since(start_));
}

namespace {

// Engine span path → probe name prefix.
const std::pair<const char*, const char*> kEngineSpans[] = {
    {"fl.round", "engine.round"},
    {"fl.round/dispatch", "engine.dispatch"},
    {"fl.round/aggregate", "engine.aggregate"},
    {"fl.client_round", "engine.client_round"},
};

std::map<std::string, SpanTotal> engine_span_totals() {
  std::map<std::string, SpanTotal> out;
  for (const auto& [path, stats] : obs::Registry::global().spans()) {
    out[path] = {static_cast<double>(stats.inclusive_ns) / 1e6, stats.count};
  }
  return out;
}

}  // namespace

void EngineSpans::begin() {
  if (probes_ != nullptr) start_ = engine_span_totals();
}

void EngineSpans::end() {
  if (probes_ == nullptr) return;
  const auto now = engine_span_totals();
  for (const auto& [path, prefix] : kEngineSpans) {
    const auto it = now.find(path);
    if (it == now.end()) continue;
    SpanTotal before;
    if (const auto b = start_.find(path); b != start_.end()) before = b->second;
    probes_->add(std::string(prefix) + "_ms", it->second.ms - before.ms);
    probes_->add(std::string(prefix) + "_count",
                 static_cast<double>(it->second.count - before.count));
  }
}

namespace {

class TracedPreprocessor : public fl::BatchPreprocessor {
 public:
  TracedPreprocessor(fl::PreprocessorPtr inner, Probes* probes)
      : inner_(std::move(inner)), probes_(probes) {}

  data::Batch process(const data::Batch& batch,
                      common::Rng& rng) const override {
    const auto t0 = Clock::now();
    data::Batch out = inner_->process(batch, rng);
    probes_->add("augment.process_ms", ms_since(t0));
    probes_->add("augment.samples_out", static_cast<double>(out.size()));
    return out;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  fl::PreprocessorPtr inner_;
  Probes* probes_;
};

}  // namespace

fl::PreprocessorPtr traced_preprocessor(fl::PreprocessorPtr inner,
                                        Probes* probes) {
  if (inner == nullptr) inner = std::make_shared<fl::IdentityPreprocessor>();
  if (probes == nullptr) return inner;
  return std::make_shared<TracedPreprocessor>(std::move(inner), probes);
}

fl::ModelAuditor traced_auditor(fl::ModelAuditor inner, Probes* probes) {
  if (!inner || probes == nullptr) return inner;
  return [inner = std::move(inner), probes](nn::Sequential& model,
                                            std::uint64_t round) {
    const auto t0 = Clock::now();
    try {
      inner(model, round);
    } catch (const AuditError&) {
      probes->add("attack.audit_ms", ms_since(t0));
      probes->add("attack.audit_refused", 1.0);
      throw;
    }
    probes->add("attack.audit_ms", ms_since(t0));
  };
}

index_t samples_per_client_round(const fl::BatchPreprocessor& pre,
                                 const data::InMemoryDataset& data,
                                 index_t batch_size) {
  std::vector<index_t> indices(batch_size);
  for (index_t i = 0; i < batch_size; ++i) indices[i] = i;
  common::Rng rng(0);
  return pre.process(data::gather(data, indices), rng).size();
}

}  // namespace roundbench
