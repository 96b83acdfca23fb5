#include "nn/activations.hpp"

#include <cmath>

#include "common/error.hpp"

namespace fare {

// Both write every output element once through a select: no copy first, no
// conditional store. `v > 0 ? v : 0` maps -0 and NaN to +0 (std::max would
// not), and `!(pre <= 0) ? g : 0` keeps the gradient under a NaN
// pre-activation.
Matrix relu(const Matrix& x) {
    Matrix y = Matrix::uninitialized(x.rows(), x.cols());
    const auto in = x.flat();
    const auto out = y.flat();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    return y;
}

Matrix relu_backward(const Matrix& grad, const Matrix& pre) {
    FARE_CHECK(grad.rows() == pre.rows() && grad.cols() == pre.cols(),
               "relu_backward shape mismatch");
    Matrix g = Matrix::uninitialized(grad.rows(), grad.cols());
    const auto gin = grad.flat();
    const auto p = pre.flat();
    const auto out = g.flat();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = !(p[i] <= 0.0f) ? gin[i] : 0.0f;
    return g;
}

float leaky_relu_scalar(float x, float slope) {
    return x > 0.0f ? x : slope * x;
}

float leaky_relu_grad_scalar(float x, float slope) {
    return x > 0.0f ? 1.0f : slope;
}

Matrix leaky_relu(const Matrix& x, float slope) {
    Matrix y = x;
    for (auto& v : y.flat()) v = leaky_relu_scalar(v, slope);
    return y;
}

Matrix leaky_relu_backward(const Matrix& grad, const Matrix& pre, float slope) {
    FARE_CHECK(grad.rows() == pre.rows() && grad.cols() == pre.cols(),
               "leaky_relu_backward shape mismatch");
    Matrix g = grad;
    auto p = pre.flat();
    auto out = g.flat();
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] *= leaky_relu_grad_scalar(p[i], slope);
    return g;
}

Matrix softmax_rows(const Matrix& x) {
    Matrix y(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        auto in = x.row(r);
        auto out = y.row(r);
        float mx = in[0];
        for (float v : in) mx = std::max(mx, v);
        float sum = 0.0f;
        for (std::size_t c = 0; c < in.size(); ++c) {
            out[c] = std::exp(in[c] - mx);
            sum += out[c];
        }
        const float inv = 1.0f / sum;
        for (auto& v : out) v *= inv;
    }
    return y;
}

}  // namespace fare
