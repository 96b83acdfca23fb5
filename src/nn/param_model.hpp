// Parameter surface shared by every trainable model (GNN layers and stacks,
// transformer blocks).
//
// A model keeps two copies of every parameter: the *logical* weights the
// optimizer updates (host-side master copy) and the *effective* weights the
// forward/backward computation uses — what the faulty crossbars return after
// corruption and clipping. The three lists are matched index-for-index, and
// that index order is the crossbar bind order.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace fare {

class ParamModel {
public:
    virtual ~ParamModel() = default;

    /// Logical (master) parameters.
    virtual std::vector<Matrix*> params() = 0;
    virtual std::vector<Matrix*> grads() = 0;
    /// Hardware-visible copies used in compute; refreshed by the trainer.
    virtual std::vector<Matrix*> effective_params() = 0;

    void zero_grads() {
        for (Matrix* g : grads()) g->fill(0.0f);
    }
    /// Copy logical -> effective (ideal hardware).
    void sync_effective() {
        auto p = params();
        auto e = effective_params();
        for (std::size_t i = 0; i < p.size(); ++i) *e[i] = *p[i];
    }
    std::size_t num_weights() {
        std::size_t n = 0;
        for (Matrix* p : params()) n += p->size();
        return n;
    }
};

}  // namespace fare
