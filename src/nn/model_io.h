// Snapshot/restore of model state (parameters + buffers) as tensor lists and
// byte buffers — the payloads the FL protocol ships.
#pragma once

#include "nn/module.h"
#include "tensor/serialize.h"

namespace oasis::nn {

/// Copies all parameter values followed by all buffers, in module order.
std::vector<tensor::Tensor> snapshot_state(Module& model);

/// Loads a snapshot produced by snapshot_state into a structurally identical
/// model. Throws Error on count/shape mismatch, checked for every tensor
/// before any is assigned: a throw leaves the model untouched.
void load_state(Module& model, const std::vector<tensor::Tensor>& state);

/// Copies all parameter *gradients*, in module order (an FL client update).
std::vector<tensor::Tensor> snapshot_gradients(Module& model);

/// Serialized forms (wire format of the FL simulator).
/// serialize_state equals serialize_tensors(snapshot_state(model)) byte for
/// byte. deserialize_state verifies the CRC, parses the whole buffer and
/// checks every shape before it copies the values into the model's existing
/// tensors, so a damaged or mismatched payload throws with the model
/// untouched.
tensor::ByteBuffer serialize_state(Module& model);
void deserialize_state(Module& model, const tensor::ByteBuffer& bytes);

}  // namespace oasis::nn
