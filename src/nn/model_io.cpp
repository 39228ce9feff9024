#include "nn/model_io.h"

#include <cstring>
#include <utility>

namespace oasis::nn {
namespace {

/// The state tensors in snapshot order: parameter values, then buffers.
std::vector<tensor::Tensor*> state_slots(Module& model) {
  std::vector<tensor::Tensor*> slots;
  for (auto* p : model.parameters()) slots.push_back(&p->value);
  for (auto* b : model.buffers()) slots.push_back(b);
  return slots;
}

/// Checks the count and every shape (`shape_of(i)` for state tensor i)
/// before anything is assigned, so a state that does not fit throws with the
/// model untouched.
template <typename ShapeOf>
std::vector<tensor::Tensor*> checked_slots(Module& model, std::size_t count,
                                           ShapeOf&& shape_of) {
  std::vector<tensor::Tensor*> slots = state_slots(model);
  OASIS_CHECK_MSG(count == slots.size(),
                  "load_state: " << count << " tensors for " << slots.size()
                                 << " params + buffers");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    tensor::check_same_shape(slots[i]->shape(), shape_of(i), "load_state");
  }
  return slots;
}

}  // namespace

std::vector<tensor::Tensor> snapshot_state(Module& model) {
  std::vector<tensor::Tensor> state;
  for (const auto* t : state_slots(model)) state.push_back(*t);
  return state;
}

void load_state(Module& model, const std::vector<tensor::Tensor>& state) {
  const auto slots =
      checked_slots(model, state.size(), [&](std::size_t i) -> const auto& {
        return state[i].shape();
      });
  for (std::size_t i = 0; i < slots.size(); ++i) *slots[i] = state[i];
}

std::vector<tensor::Tensor> snapshot_gradients(Module& model) {
  std::vector<tensor::Tensor> grads;
  for (const auto* p : model.parameters()) grads.push_back(p->grad);
  return grads;
}

tensor::ByteBuffer serialize_state(Module& model) {
  // Written straight from the module's tensors: no snapshot copy.
  return tensor::serialize_tensors(state_slots(model));
}

void deserialize_state(Module& model, const tensor::ByteBuffer& bytes) {
  // CRC and full structural parse first, then every shape, then the values
  // straight into the model's own storage: no tensor is built.
  const auto found = tensor::locate_tensors(bytes);
  const auto slots =
      checked_slots(model, found.size(), [&](std::size_t i) -> const auto& {
        return found[i].shape;
      });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (found[i].numel == 0) continue;
    std::memcpy(slots[i]->data().data(), bytes.data() + found[i].offset,
                found[i].numel * sizeof(real));
  }
}

}  // namespace oasis::nn
