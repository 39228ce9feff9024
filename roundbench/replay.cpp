// Layer-by-layer replay of client rounds through public calls.
//
// Client::handle_round runs, in order: nn::deserialize_state, the auditor,
// batch sampling + data::gather, the preprocessor, Sequential::forward, the
// loss, Sequential::backward, nn::snapshot_gradients and
// tensor::serialize_tensors. The replay makes the same calls with the same
// model, rng stream and data, but drives the Sequential one child at a time,
// so every call can be timed on its own. The engine then applies the
// defense stack, screens and folds the update, and commits the round; the
// replay does the same against its own fl::Server.
//
// The replayed upload must equal the bytes Client::handle_round produces
// for the same inputs — otherwise the per-layer numbers would describe some
// other program — and the server must accept it.
#include <algorithm>
#include <cctype>
#include <iterator>

#include "bench.h"
#include "common/crc32c.h"
#include "fl/aggregation.h"
#include "fl/server.h"
#include "nn/loss.h"
#include "nn/model_io.h"

namespace roundbench {

using namespace oasis;

namespace {

std::string layer_name(index_t i, const nn::Module& m) {
  std::string kind = m.name();
  std::transform(kind.begin(), kind.end(), kind.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return "nn." + std::to_string(i) + "." + kind;
}

// Kernel counters the per-client exact counts are read from.
const std::pair<const char*, const char*> kKernelCounters[] = {
    {"kernel.gemm.calls", "tensor.gemm.calls_per_client"},
    {"kernel.im2col.calls", "tensor.im2col.calls_per_client"},
    {"kernel.col2im.calls", "tensor.col2im.calls_per_client"},
    {"kernel.gemm.flops", "tensor.gemm.flops_per_client"},
};

// CRC32C throughput over `bytes`, repeated until ~5 ms have elapsed.
double crc_gb_per_s(const tensor::ByteBuffer& bytes) {
  const auto t0 = Clock::now();
  std::uint64_t done = 0;
  std::uint32_t sink = 0;
  while (ms_since(t0) < 5.0) {
    sink ^= common::crc32c(bytes.data(), bytes.size());
    done += bytes.size();
  }
  const double seconds = ms_since(t0) / 1e3;
  return sink == 0xFFFFFFFFu ? 0.0 : static_cast<double>(done) / seconds / 1e9;
}

}  // namespace

void replay_round(ReplaySpec spec, Probes& probes,
                  std::vector<std::string>& violations) {
  fl::Server server(spec.factory(), spec.learning_rate);
  fl::GlobalModelMessage msg;
  {
    const Timed t(&probes, "fl.dispatch_ms");
    msg = server.begin_round();
    for (index_t i = 0; i < spec.cohort_size; ++i) {
      (void)server.dispatch_to(i);
    }
  }
  fl::UpdateScreen screen = server.begin_screen();
  fl::FedAvgAccumulator accumulator;
  nn::SoftmaxCrossEntropy loss_fn;
  std::vector<std::uint64_t> cohort;
  for (const auto& rc : spec.clients) cohort.push_back(rc.client->id());

  for (auto& rc : spec.clients) {
    fl::Client& client = *rc.client;
    common::Rng rng = rc.round_keyed
                          ? fl::client_round_stream(rc.round_key_seed,
                                                    msg.round, client.id())
                          : common::Rng(0);
    if (!rc.round_keyed) rng.set_state(client.rng_state());
    const tensor::ByteBuffer reference = client.handle_round(msg).gradients;

    std::vector<std::uint64_t> kernel_before;
    for (const auto& [counter, metric] : kKernelCounters) {
      kernel_before.push_back(counter_value(counter));
    }
    const std::unique_ptr<nn::Sequential> model = spec.factory();
    {
      const Timed t(&probes, "nn.load_state_ms");
      nn::deserialize_state(*model, msg.model_state);
    }
    if (spec.auditor) spec.auditor(*model, msg.round);
    data::Batch batch;
    {
      const Timed t(&probes, "data.gather_ms");
      const auto indices = rng.sample_without_replacement(
          client.local_data().size(), spec.batch_size);
      batch = data::gather(client.local_data(), indices);
    }
    batch = spec.preprocessor->process(batch, rng);
    model->zero_grad();
    tensor::Tensor h = batch.images;
    for (index_t i = 0; i < model->size(); ++i) {
      const Timed t(&probes, layer_name(i, model->at(i)) + ".fwd_ms");
      h = model->at(i).forward(h, /*training=*/true);
    }
    nn::LossResult loss;
    {
      const Timed t(&probes, "nn.loss_ms");
      loss = loss_fn.compute(h, batch.labels);
    }
    tensor::Tensor g = loss.grad_logits;
    for (index_t i = model->size(); i-- > 0;) {
      const Timed t(&probes, layer_name(i, model->at(i)) + ".bwd_ms");
      g = model->at(i).backward(g);
    }
    std::vector<tensor::Tensor> gradients;
    {
      const Timed t(&probes, "nn.snapshot_gradients_ms");
      gradients = nn::snapshot_gradients(*model);
    }
    fl::ClientUpdateMessage update;
    update.round = msg.round;
    update.client_id = client.id();
    update.num_examples = batch.size();
    {
      const Timed t(&probes, "tensor.serialize_ms");
      update.gradients = tensor::serialize_tensors(gradients);
    }
    for (std::size_t k = 0; k < std::size(kKernelCounters); ++k) {
      probes.add(kKernelCounters[k].second,
                 static_cast<double>(counter_value(kKernelCounters[k].first) -
                                     kernel_before[k]));
    }
    if (update.gradients != reference) {
      violations.push_back("replay: client " + std::to_string(client.id()) +
                           " upload differs from Client::handle_round");
    }
    probes.add("fl.bytes_per_update",
               static_cast<double>(update.gradients.size()));
    {
      const Timed t(&probes, "tensor.deserialize_ms");
      (void)tensor::deserialize_tensors(update.gradients);
    }
    probes.add("common.crc32c_gb_per_s", crc_gb_per_s(update.gradients));

    if (spec.defense && !spec.defense->empty()) {
      const Timed t(&probes, "fl.defense_ms");
      spec.defense->apply(update, cohort);
    }
    fl::RejectReason verdict;
    {
      const Timed t(&probes, "fl.screen_ms");
      verdict = server.screen_update(update, screen);
    }
    if (verdict != fl::RejectReason::kAccepted) {
      violations.push_back("replay: server screened out client " +
                           std::to_string(client.id()) + " (" +
                           fl::to_string(verdict) + ")");
      continue;
    }
    const Timed t(&probes, "fl.fold_ms");
    accumulator.add(update);
  }
  if (accumulator.count() > 0) {
    const Timed t(&probes, "fl.commit_ms");
    server.commit_round(accumulator.average());
  }
}

}  // namespace roundbench
