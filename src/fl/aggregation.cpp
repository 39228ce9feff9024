#include "fl/aggregation.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "common/error.h"
#include "tensor/serialize.h"
#include "tensor/shape.h"

namespace oasis::fl {

namespace {

/// The one fold step under every entry point: the first update is scaled
/// rather than added into zeros, so -0.0 payload values survive bitwise
/// (0.0 + -0.0 is +0.0); every later one is fused into the sum. `values`
/// may point into a message, so it is read unaligned.
void fold_values(real* total, const void* values, index_t n, real w,
                 bool first) {
  for (index_t k = 0; k < n; ++k) {
    real v;
    std::memcpy(&v, static_cast<const std::uint8_t*>(values) + k * sizeof(v),
                sizeof(v));
    total[k] = first ? v * w : std::fma(w, v, total[k]);
  }
}

}  // namespace

void FedAvgAccumulator::add(const ClientUpdateMessage& update, bool screened) {
  const auto weight = static_cast<real>(update.num_examples);
  if (weight <= 0.0) {
    throw AggregationError("client " + std::to_string(update.client_id) +
                           " reported zero examples");
  }
  const auto found = tensor::locate_tensors(update.gradients, !screened);
  // The first update of a round overwrites the storage the last one left.
  const bool first = total_.empty();
  const std::vector<tensor::Tensor>& shaped = first ? spare_ : total_;
  bool fits = shaped.size() == found.size();
  for (std::size_t i = 0; fits && i < found.size(); ++i) {
    fits = shaped[i].shape() == found[i].shape;
  }
  OASIS_CHECK_MSG(first || fits, "update tensors do not match the running "
                                 "sum's " << total_.size() << " tensors");
  if (first && !fits) {
    spare_.clear();
    for (const auto& t : found) spare_.emplace_back(t.shape);
  }
  if (first) total_ = std::move(spare_);
  for (std::size_t i = 0; i < found.size(); ++i) {
    fold_values(total_[i].data().data(),
                update.gradients.data() + found[i].offset, found[i].numel,
                weight, first);
  }
  total_weight_ += weight;
  ++count_;
}

void FedAvgAccumulator::add(std::vector<tensor::Tensor> gradients,
                            real weight) {
  if (weight <= 0.0) {
    throw AggregationError("FedAvg weight must be positive");
  }
  const bool first = total_.empty();
  if (first) total_ = std::move(gradients);  // scaled in place below
  OASIS_CHECK_MSG(first || gradients.size() == total_.size(),
                  "update tensor count mismatch: " << gradients.size()
                                                   << " vs " << total_.size());
  for (std::size_t i = 0; !first && i < total_.size(); ++i) {
    tensor::check_same_shape(total_[i].shape(), gradients[i].shape(),
                             "FedAvg fold");
  }
  for (std::size_t i = 0; i < total_.size(); ++i) {
    fold_values(total_[i].data().data(),
                (first ? total_ : gradients)[i].data().data(),
                total_[i].size(), weight, first);
  }
  total_weight_ += weight;
  ++count_;
}

std::vector<tensor::Tensor> FedAvgAccumulator::average() const {
  FedAvgAccumulator copy;
  copy.restore(total_, total_weight_, count_);
  copy.average_in_place();
  return std::move(copy.total_);
}

const std::vector<tensor::Tensor>& FedAvgAccumulator::average_in_place() {
  if (count_ == 0) {
    // Typed so the round engine can distinguish "nothing valid survived
    // screening" from a programming error (and never divides by the zero
    // total weight below).
    throw AggregationError("FedAvg over an empty update set");
  }
  for (auto& t : total_) t /= total_weight_;
  return total_;
}

void FedAvgAccumulator::reset() {
  if (!total_.empty()) spare_ = std::move(total_);
  total_.clear();
  total_weight_ = 0.0;
  count_ = 0;
}

void FedAvgAccumulator::restore(std::vector<tensor::Tensor> partials,
                                real total_weight, std::uint64_t count) {
  total_ = std::move(partials);
  total_weight_ = total_weight;
  count_ = count;
}

const char* to_string(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kFedAvg: return "fedavg";
    case AggregatorKind::kCoordinateMedian: return "median";
    case AggregatorKind::kTrimmedMean: return "trimmed_mean";
    case AggregatorKind::kNormBounded: return "norm_bounded";
  }
  return "?";
}

real clip_gradients_to_norm(std::vector<tensor::Tensor>& gradients,
                            real max_norm) {
  OASIS_CHECK_MSG(max_norm > 0.0, "clip bound must be positive");
  real sum_squares = 0.0;
  for (const auto& t : gradients) {
    for (const auto v : t.data()) sum_squares += v * v;
  }
  const real norm = std::sqrt(sum_squares);
  if (norm > max_norm) {
    const real scale = max_norm / norm;
    for (auto& t : gradients) t *= scale;
  }
  return norm;
}

namespace {

/// Validates a buffered update set and hands each output coordinate's value
/// column (sorted ascending) to `fold`, which returns the aggregated value.
template <typename Fold>
std::vector<tensor::Tensor> per_coordinate(
    std::span<const std::vector<tensor::Tensor>> updates, Fold&& fold) {
  if (updates.empty()) {
    throw AggregationError("robust aggregation over an empty update set");
  }
  const auto& first = updates.front();
  for (const auto& u : updates) {
    OASIS_CHECK_MSG(u.size() == first.size(),
                    "update tensor count mismatch: " << u.size() << " vs "
                                                     << first.size());
    for (std::size_t t = 0; t < u.size(); ++t) {
      OASIS_CHECK_MSG(u[t].shape() == first[t].shape(),
                      "update tensor " << t << " shape mismatch");
    }
  }
  std::vector<tensor::Tensor> result;
  result.reserve(first.size());
  std::vector<real> column(updates.size());
  for (std::size_t t = 0; t < first.size(); ++t) {
    tensor::Tensor out(first[t].shape());
    for (index_t j = 0; j < out.size(); ++j) {
      for (std::size_t u = 0; u < updates.size(); ++u) {
        column[u] = updates[u][t][j];
      }
      // Sorting makes the fold order a function of the VALUES: the result is
      // bit-identical under any permutation of the update set.
      std::sort(column.begin(), column.end());
      out[j] = fold(column);
    }
    result.push_back(std::move(out));
  }
  return result;
}

}  // namespace

std::vector<tensor::Tensor> coordinate_median(
    std::span<const std::vector<tensor::Tensor>> updates) {
  return per_coordinate(updates, [](const std::vector<real>& sorted) {
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  });
}

std::vector<tensor::Tensor> trimmed_mean(
    std::span<const std::vector<tensor::Tensor>> updates, real trim_fraction) {
  if (!(trim_fraction >= 0.0) || trim_fraction >= 0.5) {
    throw ConfigError("trim_fraction must be in [0, 0.5)");
  }
  const auto trim = static_cast<std::size_t>(
      std::floor(trim_fraction * static_cast<real>(updates.size())));
  if (updates.empty() || updates.size() <= 2 * trim) {
    throw AggregationError("trimmed mean over " +
                           std::to_string(updates.size()) +
                           " updates leaves nothing after trimming " +
                           std::to_string(trim) + " per tail");
  }
  const real kept = static_cast<real>(updates.size() - 2 * trim);
  return per_coordinate(updates, [&](const std::vector<real>& sorted) {
    real sum = 0.0;
    for (std::size_t u = trim; u < sorted.size() - trim; ++u) sum += sorted[u];
    return sum / kept;
  });
}

AggregatorConfig parse_aggregator(const std::string& spec) {
  std::string name = spec;
  std::string param;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    param = spec.substr(colon + 1);
  }
  const auto parse_param = [&](const char* what) {
    std::istringstream is(param);
    real value = 0.0;
    char trailing = 0;
    if (!(is >> value) || is.get(trailing) || !std::isfinite(value)) {
      throw ConfigError(std::string("aggregator ") + what +
                        " parameter is malformed: '" + param + "'");
    }
    return value;
  };

  AggregatorConfig config;
  if (name == "fedavg") {
    if (!param.empty()) throw ConfigError("fedavg takes no parameter");
  } else if (name == "median") {
    if (!param.empty()) throw ConfigError("median takes no parameter");
    config.kind = AggregatorKind::kCoordinateMedian;
  } else if (name == "trimmed") {
    config.kind = AggregatorKind::kTrimmedMean;
    if (!param.empty()) config.trim_fraction = parse_param("trimmed");
    if (config.trim_fraction < 0.0 || config.trim_fraction >= 0.5) {
      throw ConfigError("trim fraction must be in [0, 0.5)");
    }
  } else if (name == "normbound") {
    config.kind = AggregatorKind::kNormBounded;
    if (!param.empty()) config.norm_bound = parse_param("normbound");
    if (!(config.norm_bound > 0.0)) {
      throw ConfigError("norm bound must be positive");
    }
  } else {
    throw ConfigError("unknown aggregator '" + name +
                      "' (fedavg|median|trimmed[:f]|normbound[:b])");
  }
  return config;
}

}  // namespace oasis::fl
