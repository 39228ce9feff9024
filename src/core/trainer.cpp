#include "core/trainer.h"

#include "augment/policy.h"
#include "metrics/accuracy.h"
#include "nn/loss.h"
#include "obs/obs.h"

namespace oasis::core {

TrainResult train_classifier(nn::Sequential& model,
                             const data::InMemoryDataset& train,
                             const data::InMemoryDataset& test,
                             const TrainerConfig& config) {
  OASIS_CHECK(!train.empty() && !test.empty());
  OASIS_CHECK(config.epochs >= 1);
  const augment::AugmentationPolicy policy =
      augment::make_policy(config.transforms);
  common::Rng rng(config.seed);
  nn::Adam optimizer(model.parameters(), config.adam);
  nn::SoftmaxCrossEntropy loss_fn;

  static obs::Counter& step_counter = obs::counter("train.steps");
  static obs::Counter& epoch_counter = obs::counter("train.epochs");
  static obs::Counter& example_counter = obs::counter("train.examples");
  obs::Gauge& loss_gauge = obs::gauge("train.last_epoch_loss");

  TrainResult result;
  for (index_t epoch = 0; epoch < config.epochs; ++epoch) {
    const obs::ScopedTimer epoch_span("train.epoch");
    real epoch_loss = 0.0;
    index_t steps = 0;
    for (const auto& indices :
         data::epoch_batches(train.size(), config.batch_size, rng,
                             /*drop_last=*/false)) {
      const obs::ScopedTimer step_span("step");
      data::Batch batch = data::gather(train, indices);
      if (!policy.empty()) batch = policy.augment(batch, rng);

      optimizer.zero_grad();
      const tensor::Tensor logits =
          model.forward(batch.images, /*training=*/true);
      const nn::LossResult loss = loss_fn.compute(logits, batch.labels);
      model.backward_params(loss.grad_logits);
      optimizer.step();

      epoch_loss += loss.loss;
      ++steps;
      step_counter.add(1);
      example_counter.add(indices.size());
    }
    epoch_loss /= static_cast<real>(steps == 0 ? 1 : steps);
    result.epoch_loss.push_back(epoch_loss);
    epoch_counter.add(1);
    loss_gauge.set(epoch_loss);
  }
  {
    const obs::ScopedTimer eval_span("train.final_eval");
    result.final_test_accuracy = metrics::accuracy(model, test);
    result.final_train_accuracy = metrics::accuracy(model, train);
  }
  obs::gauge("train.final_test_accuracy").set(result.final_test_accuracy);
  obs::gauge("train.final_train_accuracy").set(result.final_train_accuracy);
  return result;
}

}  // namespace oasis::core
