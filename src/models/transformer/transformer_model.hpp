// Minimal decoder-free transformer classifier for the crossbar fabric.
//
// Architecture (single attention head per block, no LayerNorm — the scaled
// residual stream stays well-conditioned at this depth and keeping every
// parameter a plain matrix means *all* of them live on crossbars):
//
//   X0   = Embed[tokens] + Pos
//   per block: X1 = X + softmax(X Wq (X Wk)^T / sqrt(d)) (X Wv) Wo
//              X2 = X1 + relu(X1 W1) W2
//   logits = mean_rows(X_last) Wc
//
// Implements the ParamModel contract (nn/param_model.hpp), like the GNN
// layers: logical (master) parameters the optimizer updates, plus effective
// copies refreshed from the hardware model before each batch. Gradients
// are computed w.r.t. the effective weights and applied to the logical ones
// (on-device training with a host-resident optimizer).
// GEMMs go through numeric/matrix.hpp and therefore the PR 8 SIMD kernel
// tables; the attention softmax runs on the host (special-function units in
// the accelerator model).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/param_model.hpp"

namespace fare {

struct TransformerConfig {
    int vocab_size = 64;
    int seq_len = 16;
    int num_classes = 4;
    std::size_t d_model = 32;
    std::size_t num_blocks = 2;
    std::size_t ff_mult = 2;  ///< d_ff = ff_mult * d_model
    std::uint64_t seed = 1;
};

class TransformerModel final : public ParamModel {
public:
    explicit TransformerModel(const TransformerConfig& config);

    /// Parameter order (stable; this is the crossbar bind order):
    /// embed, pos, then per block {Wq, Wk, Wv, Wo, W1, W2}, then Wc.
    std::vector<Matrix*> params() override;
    std::vector<Matrix*> grads() override;
    std::vector<Matrix*> effective_params() override;

    /// Forward a batch of token sequences with the current effective weights;
    /// returns (batch x classes) logits and caches activations for backward.
    Matrix forward(const std::vector<const std::vector<int>*>& batch_tokens);

    /// Backward for the most recent forward; accumulates parameter grads.
    void backward(const Matrix& grad_logits);

    const TransformerConfig& config() const { return config_; }

private:
    struct BlockParams {
        Matrix wq, wk, wv, wo, w1, w2;
    };
    struct BlockCache {
        Matrix x_in, q, k, v, attn, h, x1, u, r;
    };
    struct SeqCache {
        std::vector<BlockCache> blocks;
        Matrix x_out;
        const std::vector<int>* tokens = nullptr;
    };

    TransformerConfig config_;
    // Logical / gradient / effective triples.
    Matrix embed_, pos_, wc_;
    std::vector<BlockParams> block_;
    Matrix g_embed_, g_pos_, g_wc_;
    std::vector<BlockParams> g_block_;
    Matrix e_embed_, e_pos_, e_wc_;
    std::vector<BlockParams> e_block_;

    std::vector<SeqCache> cache_;
    Matrix pooled_;  ///< (batch x d) mean-pooled final states
};

}  // namespace fare
