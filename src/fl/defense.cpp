#include "fl/defense.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/error.h"
#include "fl/aggregation.h"
#include "fl/secure_agg.h"
#include "obs/obs.h"
#include "tensor/serialize.h"

namespace oasis::fl {

ClipDefense::ClipDefense(real max_norm) : max_norm_(max_norm) {
  if (!(max_norm > 0.0 && std::isfinite(max_norm))) {
    throw ConfigError("clip defense needs a finite max_norm > 0");
  }
}

void ClipDefense::apply(std::vector<tensor::Tensor>& gradients,
                        common::Rng& /*rng*/,
                        const DefenseContext& /*ctx*/) const {
  static obs::Counter& applied = obs::counter("fl.defense.clip");
  static obs::Counter& active = obs::counter("fl.defense.clip.active");
  applied.add(1);
  if (clip_gradients_to_norm(gradients, max_norm_) > max_norm_) active.add(1);
}

std::string ClipDefense::name() const {
  std::ostringstream os;
  os << "clip(" << max_norm_ << ")";
  return os.str();
}

GaussianNoiseDefense::GaussianNoiseDefense(real stddev) : stddev_(stddev) {
  if (!(stddev > 0.0 && std::isfinite(stddev))) {
    throw ConfigError("noise defense needs a finite stddev > 0");
  }
}

void GaussianNoiseDefense::apply(std::vector<tensor::Tensor>& gradients,
                                 common::Rng& rng,
                                 const DefenseContext& /*ctx*/) const {
  static obs::Counter& applied = obs::counter("fl.defense.noise");
  applied.add(1);
  for (auto& t : gradients) {
    for (auto& v : t.data()) v += rng.normal(0.0, stddev_);
  }
}

std::string GaussianNoiseDefense::name() const {
  std::ostringstream os;
  os << "noise(" << stddev_ << ")";
  return os.str();
}

TopKDefense::TopKDefense(real keep) : keep_(keep) {
  if (!(keep > 0.0 && keep <= 1.0)) {
    throw ConfigError("topk defense needs a keep fraction in (0, 1]");
  }
}

void TopKDefense::apply(std::vector<tensor::Tensor>& gradients,
                        common::Rng& /*rng*/,
                        const DefenseContext& /*ctx*/) const {
  static obs::Counter& applied = obs::counter("fl.defense.topk");
  applied.add(1);
  std::vector<real> magnitudes;
  for (auto& g : gradients) {
    if (g.size() == 0) continue;
    const auto keep = static_cast<index_t>(
        std::max<real>(1.0, std::floor(keep_ * static_cast<real>(g.size()))));
    if (keep >= g.size()) continue;
    // Per-tensor magnitude threshold: the keep-th largest |g|.
    magnitudes.resize(g.size());
    for (index_t i = 0; i < g.size(); ++i) magnitudes[i] = std::abs(g[i]);
    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     magnitudes.end(), std::greater<real>());
    const real threshold = magnitudes[keep - 1];
    for (auto& v : g.data()) {
      if (std::abs(v) < threshold) v = 0.0;
    }
  }
}

std::string TopKDefense::name() const {
  std::ostringstream os;
  os << "topk(" << keep_ << ")";
  return os.str();
}

void SecAggMaskDefense::apply(std::vector<tensor::Tensor>& gradients,
                              common::Rng& /*rng*/,
                              const DefenseContext& ctx) const {
  static obs::Counter& applied = obs::counter("fl.defense.mask");
  if (ctx.cohort.empty()) {
    throw ConfigError(
        "mask defense needs a cohort: the engine supplies one per round, the "
        "socket path needs DefenseStack::set_static_cohort");
  }
  applied.add(1);
  std::vector<tensor::Shape> shapes;
  shapes.reserve(gradients.size());
  for (const auto& t : gradients) shapes.push_back(t.shape());
  const SecureAggregationSession session(
      std::vector<std::uint64_t>(ctx.cohort.begin(), ctx.cohort.end()),
      /*round_nonce=*/ctx.round);
  const auto mask = session.mask_for(ctx.client_id, shapes);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    gradients[i] += mask[i];
  }
}

std::string SecAggMaskDefense::name() const { return "mask"; }

void DefenseStack::add(std::unique_ptr<Defense> defense) {
  OASIS_CHECK(defense != nullptr);
  defenses_.push_back(std::move(defense));
}

bool DefenseStack::requires_cohort() const {
  for (const auto& d : defenses_) {
    if (d->requires_cohort()) return true;
  }
  return false;
}

common::Rng DefenseStack::stream(std::uint64_t round, std::uint64_t client_id,
                                 std::size_t index) const {
  // Fresh root each call keeps this a pure function of the tuple: split()
  // consumes parent state, but the parent is rebuilt from the seed here.
  common::Rng root(seed_);
  common::Rng per_round = root.split(round * 0x9E3779B97F4A7C15ULL + 2);
  common::Rng per_client = per_round.split(client_id);
  return per_client.split(static_cast<std::uint64_t>(index));
}

void DefenseStack::apply(std::vector<tensor::Tensor>& gradients,
                         const DefenseContext& ctx) const {
  static obs::Counter& applied = obs::counter("fl.defense.applied");
  if (defenses_.empty()) return;
  applied.add(1);
  DefenseContext with_cohort = ctx;
  if (with_cohort.cohort.empty()) with_cohort.cohort = static_cohort_;
  for (std::size_t i = 0; i < defenses_.size(); ++i) {
    common::Rng rng = stream(ctx.round, ctx.client_id, i);
    defenses_[i]->apply(gradients, rng, with_cohort);
  }
}

void DefenseStack::apply(ClientUpdateMessage& update,
                         std::span<const std::uint64_t> cohort) const {
  if (defenses_.empty()) return;
  auto gradients = tensor::deserialize_tensors(update.gradients);
  apply(gradients, DefenseContext{update.round, update.client_id, cohort});
  update.gradients = tensor::serialize_tensors(gradients);
}

std::string DefenseStack::name() const {
  if (defenses_.empty()) return "none";
  std::string out;
  for (const auto& d : defenses_) {
    if (!out.empty()) out += "+";
    out += d->name();
  }
  return out;
}

std::shared_ptr<DefenseStack> parse_defense_stack(const std::string& spec,
                                                  std::uint64_t seed) {
  auto stack = std::make_shared<DefenseStack>(seed);
  if (spec.empty() || spec == "none") return stack;
  std::istringstream tokens(spec);
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (token.empty()) continue;
    const auto colon = token.find(':');
    const std::string kind = token.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : token.substr(colon + 1);
    const auto parse_arg = [&](const char* what) {
      std::istringstream in(arg);
      real value = 0.0;
      char trailing = 0;
      if (!(in >> value) || in.get(trailing)) {
        throw ConfigError("defense spec '" + token + "': " + what +
                          " must be a number");
      }
      return value;
    };
    if (kind == "clip") {
      stack->add(std::make_unique<ClipDefense>(parse_arg("max_norm")));
    } else if (kind == "noise") {
      stack->add(std::make_unique<GaussianNoiseDefense>(parse_arg("stddev")));
    } else if (kind == "topk") {
      stack->add(std::make_unique<TopKDefense>(parse_arg("keep")));
    } else if (kind == "mask") {
      stack->add(std::make_unique<SecAggMaskDefense>());
    } else {
      throw ConfigError("unknown defense '" + token +
                        "' (expected clip:<norm>, noise:<stddev>, "
                        "topk:<keep> or mask)");
    }
  }
  return stack;
}

}  // namespace oasis::fl
