#include "core/trainer.h"

#include <memory>

#include "augment/policy.h"
#include "ckpt/codec.h"
#include "ckpt/container.h"
#include "ckpt/manager.h"
#include "common/logging.h"
#include "metrics/accuracy.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "obs/obs.h"
#include "tensor/serialize.h"

namespace oasis::core {

namespace {

/// Everything the epoch loop reads: the trainer checkpoint payload.
struct TrainerState {
  index_t epochs_done = 0;
  std::vector<real> epoch_loss;
};

tensor::ByteBuffer encode_trainer_checkpoint(const TrainerConfig& config,
                                             nn::Sequential& model,
                                             const nn::Optimizer& optimizer,
                                             const common::Rng& rng,
                                             const TrainerState& state) {
  obs::counter("ckpt.save_total").add(1);
  ckpt::SnapshotBuilder builder;
  {
    ckpt::SectionWriter meta;
    meta.u64(state.epochs_done);
    meta.u64(config.seed);
    meta.u64(config.batch_size);
    builder.add("meta", meta.take());
  }
  builder.add("model", nn::serialize_state(model));
  builder.add("opt", tensor::serialize_tensors(optimizer.state_tensors()));
  {
    ckpt::SectionWriter w;
    ckpt::write_rng_state(w, rng.state());
    builder.add("rng", w.take());
  }
  {
    ckpt::SectionWriter w;
    w.u32(static_cast<std::uint32_t>(state.epoch_loss.size()));
    for (const real l : state.epoch_loss) w.f64(static_cast<double>(l));
    builder.add("loss", w.take());
  }
  return builder.finish();
}

TrainerState apply_trainer_checkpoint(const ckpt::Snapshot& snap,
                                      const TrainerConfig& config,
                                      nn::Sequential& model,
                                      nn::Optimizer& optimizer,
                                      common::Rng& rng) {
  using Reason = CheckpointError::Reason;
  ckpt::SectionReader meta(snap.section("meta"), "meta");
  TrainerState state;
  state.epochs_done = static_cast<index_t>(meta.u64());
  const std::uint64_t seed = meta.u64();
  const std::uint64_t batch_size = meta.u64();
  meta.expect_end();
  if (seed != config.seed || batch_size != config.batch_size) {
    throw CheckpointError(Reason::kStateMismatch,
                          "trainer snapshot belongs to a different run (seed " +
                              std::to_string(seed) + ", batch " +
                              std::to_string(batch_size) + ")");
  }

  ckpt::SectionReader rng_r(snap.section("rng"), "rng");
  const common::Rng::State rs = ckpt::read_rng_state(rng_r);
  rng_r.expect_end();

  ckpt::SectionReader loss_r(snap.section("loss"), "loss");
  state.epoch_loss.resize(loss_r.u32());
  for (auto& l : state.epoch_loss) l = static_cast<real>(loss_r.f64());
  loss_r.expect_end();

  ckpt::load_model_section([&] {
    nn::deserialize_state(model, snap.section("model"));
    optimizer.load_state_tensors(
        tensor::deserialize_tensors(snap.section("opt")));
  });
  rng.set_state(rs);
  obs::counter("ckpt.restore_total").add(1);
  return state;
}

}  // namespace

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
  index_t start_epoch = 0;
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (!config.checkpoint_dir.empty()) {
    OASIS_CHECK_MSG(config.checkpoint_every >= 1,
                    "checkpoint_every must be >= 1");
    manager = std::make_unique<ckpt::CheckpointManager>(
        config.checkpoint_dir, config.checkpoint_keep);
    if (config.resume) {
      try {
        const ckpt::CheckpointManager::Loaded loaded =
            manager->load_latest_valid();
        const TrainerState state = apply_trainer_checkpoint(
            loaded.snapshot, config, model, optimizer, rng);
        start_epoch = state.epochs_done;
        result.epoch_loss = state.epoch_loss;
        OASIS_LOG_INFO << "trainer: resumed from epoch " << start_epoch
                       << " (generation " << loaded.generation << ")";
      } catch (const CheckpointError& e) {
        if (e.reason() != CheckpointError::Reason::kNoValidGeneration) throw;
        OASIS_LOG_INFO << "trainer: nothing to resume from, starting fresh";
      }
    }
  }

  for (index_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
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
      model.backward(loss.grad_logits);
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

    if (manager != nullptr && ((epoch + 1) % config.checkpoint_every == 0 ||
                               epoch + 1 == config.epochs)) {
      const TrainerState state{epoch + 1, result.epoch_loss};
      manager->save(epoch + 1, encode_trainer_checkpoint(config, model,
                                                         optimizer, rng,
                                                         state));
    }

    if (config.on_epoch) {
      real acc = -1.0;
      if (config.eval_every != 0 &&
          ((epoch + 1) % config.eval_every == 0 ||
           epoch + 1 == config.epochs)) {
        acc = metrics::accuracy(model, test);
      }
      config.on_epoch(epoch, epoch_loss, acc);
    }
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
