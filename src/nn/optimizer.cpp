#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace fare {

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
    FARE_CHECK(lr > 0.0f, "learning rate must be positive");
}

void Adam::step(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads) {
    FARE_CHECK(params.size() == grads.size(), "params/grads size mismatch");
    if (m_.empty()) {
        for (Matrix* p : params) {
            m_.emplace_back(p->rows(), p->cols());
            v_.emplace_back(p->rows(), p->cols());
        }
    }
    FARE_CHECK(m_.size() == params.size(), "optimizer bound to different model");
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    const simd::AdamStep step{lr_, beta1_, beta2_, eps_, bc1, bc2};
    const simd::SimdKernels& k = simd::kernels();
    for (std::size_t i = 0; i < params.size(); ++i) {
        FARE_CHECK(grads[i]->size() == params[i]->size() &&
                       m_[i].size() == params[i]->size(),
                   "param/grad/state size mismatch");
        k.adam_update(params[i]->flat().data(), grads[i]->flat().data(),
                      m_[i].flat().data(), v_[i].flat().data(), params[i]->size(),
                      step);
    }
}

Sgd::Sgd(float lr, float momentum) : lr_(lr), momentum_(momentum) {
    FARE_CHECK(lr > 0.0f, "learning rate must be positive");
}

void Sgd::step(const std::vector<Matrix*>& params, const std::vector<Matrix*>& grads) {
    FARE_CHECK(params.size() == grads.size(), "params/grads size mismatch");
    if (velocity_.empty())
        for (Matrix* p : params) velocity_.emplace_back(p->rows(), p->cols());
    FARE_CHECK(velocity_.size() == params.size(), "optimizer bound to different model");
    for (std::size_t i = 0; i < params.size(); ++i) {
        auto p = params[i]->flat();
        auto g = grads[i]->flat();
        auto vel = velocity_[i].flat();
        for (std::size_t j = 0; j < p.size(); ++j) {
            vel[j] = momentum_ * vel[j] - lr_ * g[j];
            p[j] += vel[j];
        }
    }
}

}  // namespace fare
