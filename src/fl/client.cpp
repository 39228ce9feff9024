#include "fl/client.h"

#include "nn/model_io.h"

namespace oasis::fl {

Client::Client(std::uint64_t id, data::InMemoryDataset local_data,
               ModelFactory factory, index_t batch_size,
               PreprocessorPtr preprocessor, common::Rng rng,
               BatchSampling sampling, LossKind loss_kind)
    : id_(id),
      local_data_(std::move(local_data)),
      model_(factory()),
      batch_size_(batch_size),
      preprocessor_(std::move(preprocessor)),
      rng_(rng),
      sampling_(sampling),
      loss_kind_(loss_kind) {
  OASIS_CHECK(model_ != nullptr);
  OASIS_CHECK(preprocessor_ != nullptr);
  OASIS_CHECK_MSG(batch_size_ >= 1 && batch_size_ <= local_data_.size(),
                  "client " << id_ << ": batch " << batch_size_ << " vs "
                            << local_data_.size() << " local examples");
}

void Client::set_model_auditor(ModelAuditor auditor) {
  auditor_ = std::move(auditor);
}

void Client::set_round_keyed_rng(std::uint64_t base_seed) {
  round_keyed_rng_ = true;
  round_key_seed_ = base_seed;
}

common::Rng client_round_stream(std::uint64_t base_seed, std::uint64_t round,
                                std::uint64_t client_id) {
  // Fresh root each call keeps this a pure function of the tuple: split()
  // consumes parent state, but the parent is rebuilt from the seed here.
  common::Rng root(base_seed);
  common::Rng per_round = root.split(round * 0x9E3779B97F4A7C15ULL + 1);
  return per_round.split(client_id);
}

std::vector<index_t> Client::sample_batch_indices() {
  if (sampling_ == BatchSampling::kUniform) {
    return rng_.sample_without_replacement(local_data_.size(), batch_size_);
  }
  // Unique labels: walk a fresh permutation, taking the first example of
  // each class until the batch is full.
  std::vector<index_t> order(local_data_.size());
  for (index_t i = 0; i < order.size(); ++i) order[i] = i;
  rng_.shuffle(order);
  std::vector<index_t> picked;
  std::vector<bool> used(local_data_.num_classes(), false);
  for (const auto idx : order) {
    const index_t label = local_data_.at(idx).label;
    if (used[label]) continue;
    used[label] = true;
    picked.push_back(idx);
    if (picked.size() == batch_size_) break;
  }
  OASIS_CHECK_MSG(picked.size() == batch_size_,
                  "client " << id_ << ": only " << picked.size()
                            << " distinct-label examples for batch "
                            << batch_size_);
  return picked;
}

ClientUpdateMessage Client::handle_round(const GlobalModelMessage& msg,
                                         const GradientTransform& transform) {
  if (round_keyed_rng_) {
    rng_ = client_round_stream(round_key_seed_, msg.round, id_);
  }
  nn::deserialize_state(*model_, msg.model_state);
  // Audit gate: runs before any batch sampling or rng draw so a refusal
  // (AuditError) leaves this client's stream untouched for future rounds.
  if (auditor_) auditor_(*model_, msg.round);

  // Sample the local batch D; defense hook maps D -> D'.
  const auto indices = sample_batch_indices();
  last_raw_batch_ = data::gather(local_data_, indices);
  const data::Batch training_batch =
      preprocessor_->process(last_raw_batch_, rng_);

  model_->zero_grad();
  const tensor::Tensor logits =
      model_->forward(training_batch.images, /*training=*/true);
  const nn::LossResult loss =
      loss_kind_ == LossKind::kSoftmaxCrossEntropy
          ? ce_loss_.compute(logits, training_batch.labels)
          : bce_loss_.compute(logits, training_batch.labels);
  last_loss_ = loss.loss;
  model_->backward_params(loss.grad_logits);

  ClientUpdateMessage update;
  update.round = msg.round;
  update.client_id = id_;
  update.num_examples = training_batch.size();
  // The gradients move out of the parameters for the transform and the
  // one serialization, then back, so the replica keeps their storage even
  // when the transform throws.
  const auto params = model_->parameters();
  std::vector<tensor::Tensor> grads;
  grads.reserve(params.size());
  for (auto* p : params) grads.push_back(std::move(p->grad));
  struct GiveBack {
    const std::vector<nn::Parameter*>& params;
    std::vector<tensor::Tensor>& grads;
    ~GiveBack() {
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i]->grad = std::move(grads[i]);
      }
    }
  } give_back{params, grads};
  if (transform) transform(grads);
  update.gradients = tensor::serialize_tensors(grads);
  return update;
}

}  // namespace oasis::fl
