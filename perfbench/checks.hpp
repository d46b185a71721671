// Output checks for the end-to-end benchmark. Each check compares what the
// program produced against a property or an independent computation made
// here, and takes a `perturb` flag that corrupts (a copy of) the program's
// output first, so that every check can be shown to fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;  // the measured error against its tolerance
};

/// Compares `y` (the top layer's output, [i, b, j]) on the sequences
/// `batch_rows` against a plain-loop fp32 forward computed here from the
/// program's weights and embedding tables.
CheckResult CheckReferenceForward(xflow::transformer::EncoderStack& stack,
                                  xflow::transformer::Embedding& embedding,
                                  const xflow::transformer::TokenIds& tokens,
                                  const xflow::TensorH& y,
                                  const std::vector<std::int64_t>& batch_rows,
                                  bool perturb);

/// Every token of `y` must have mean ~ 0 and variance ~ 1 over i: the
/// final layernorm's property at its initial scale 1 and bias 0.
CheckResult CheckLayerNormProperty(const xflow::TensorH& y, bool perturb);

/// The benchmark's own MSE of `y` against `target` must equal the loss the
/// executor reported.
CheckResult CheckMseLoss(const xflow::TensorH& y, const xflow::TensorH& target,
                         double program_loss, bool perturb);

/// The top layer's d_ln2_b must equal the sum over (b, j) of the loss
/// gradient 2 (y - t) / N, each term rounded to fp16 as the loss head
/// stores it.
CheckResult CheckOutputBiasGradient(const xflow::TensorH& y,
                                    const xflow::TensorH& target,
                                    const xflow::TensorH& d_ln2_b,
                                    bool perturb);

/// Both embedding tables receive the same d_x, so their gradients' column
/// sums must agree: sum_v d_token_table[v, i] == sum_j d_pos_table[j, i].
CheckResult CheckEmbeddingGradientBalance(const xflow::TensorH& d_token_table,
                                          const xflow::TensorH& d_pos_table,
                                          bool perturb);

/// With fixed batch and dropout seeds each step is a deterministic function
/// of the weights, so Adam at its default rate must never raise the loss.
CheckResult CheckLossNonIncreasing(const std::vector<double>& losses,
                                   bool perturb);

/// A 64-bit hash of a tensor's bytes: two fingerprints of fp16 tensors of
/// the same size differ when any bit differs (up to a 2^-64 collision).
std::uint64_t Fingerprint(const xflow::TensorH& t);
std::vector<std::uint64_t> Fingerprints(
    const std::vector<const xflow::TensorH*>& tensors);

/// Bitwise equality of two runs' outputs: doubles, and fp16 tensors by
/// fingerprint, so the reference run keeps no copy of its tensors.
CheckResult CheckBitwiseEqual(const std::string& name,
                              const std::vector<double>& want_scalars,
                              const std::vector<double>& got_scalars,
                              const std::vector<std::uint64_t>& want,
                              const std::vector<const xflow::TensorH*>& got,
                              bool perturb);

}  // namespace perfbench
