// Classifier training harness for the Table 1 experiment (model utility
// with vs without OASIS).
#pragma once

#include <vector>

#include "augment/transforms.h"
#include "data/dataset.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace oasis::core {

struct TrainerConfig {
  index_t epochs = 10;
  index_t batch_size = 32;
  nn::Adam::Options adam;  // paper: lr 1e-3; weight decay 1e-5 / 1e-3
  /// OASIS transform set applied to every training batch (empty = without
  /// OASIS). Augmented copies inherit their original's label, per Section 4.
  std::vector<augment::TransformKind> transforms;
  std::uint64_t seed = 17;
};

struct TrainResult {
  std::vector<real> epoch_loss;
  real final_test_accuracy = 0.0;
  real final_train_accuracy = 0.0;
};

/// Trains `model` on `train` with Adam + softmax CE and returns accuracies
/// on `test`/`train`. Deterministic in (model init, config seed).
TrainResult train_classifier(nn::Sequential& model,
                             const data::InMemoryDataset& train,
                             const data::InMemoryDataset& test,
                             const TrainerConfig& config);

}  // namespace oasis::core
