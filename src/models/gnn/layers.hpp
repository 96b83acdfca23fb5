// GNN layer interface.
//
// Layers keep logical and effective copies of every parameter (see
// nn/param_model.hpp). The trainer refreshes the effective copies from the
// hardware model before every batch; with ideal hardware they simply mirror
// the logical weights. Gradients are computed w.r.t. the effective weights
// (that is what the analog tiles differentiate through) and applied to the
// logical weights, mirroring on-device training with a host-resident
// optimizer state (paper §III-A).
#pragma once

#include <memory>
#include <vector>

#include "models/gnn/batch_view.hpp"
#include "nn/param_model.hpp"
#include "nn/train_types.hpp"

namespace fare {

class Rng;

class Layer : public ParamModel {
public:
    /// Forward pass; caches whatever backward needs.
    virtual Matrix forward(const Matrix& x, const BatchGraphView& g) = 0;

    /// Backward pass for the most recent forward on the same view.
    /// Accumulates parameter gradients and returns grad w.r.t. the input.
    virtual Matrix backward(const Matrix& grad_out, const BatchGraphView& g) = 0;
};

/// Graph Convolutional Network layer: Y = act(A_gcn (X W)).
std::unique_ptr<Layer> make_gcn_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng);

/// Graph Attention layer (single head): Y = act(sum_j alpha_ij (X W)_j).
std::unique_ptr<Layer> make_gat_layer(std::size_t in, std::size_t out, bool with_relu,
                                      Rng& rng);

/// GraphSAGE layer (mean aggregator): Y = act(X W_self + (A_mean X) W_neigh).
std::unique_ptr<Layer> make_sage_layer(std::size_t in, std::size_t out, bool with_relu,
                                       Rng& rng);

}  // namespace fare
