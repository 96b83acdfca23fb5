#include "nn/activations.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace fare {

// Both write every output element once into an uninitialised matrix,
// through the SIMD table's branch-free select (common/simd.hpp): -0 and NaN
// map to +0, and a NaN pre-activation keeps the gradient.
Matrix relu(const Matrix& x) {
    Matrix y = Matrix::uninitialized(x.rows(), x.cols());
    simd::kernels().relu(x.flat().data(), y.flat().data(), y.size());
    return y;
}

Matrix relu_backward(const Matrix& grad, const Matrix& pre) {
    FARE_CHECK(grad.rows() == pre.rows() && grad.cols() == pre.cols(),
               "relu_backward shape mismatch");
    Matrix g = Matrix::uninitialized(grad.rows(), grad.cols());
    simd::kernels().relu_backward(grad.flat().data(), pre.flat().data(),
                                  g.flat().data(), g.size());
    return g;
}

// One pass each into an uninitialised matrix, with the header's scalar
// helpers inlined.
Matrix leaky_relu(const Matrix& x, float slope) {
    Matrix y = Matrix::uninitialized(x.rows(), x.cols());
    const auto in = x.flat();
    const auto out = y.flat();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = leaky_relu_scalar(in[i], slope);
    return y;
}

Matrix leaky_relu_backward(const Matrix& grad, const Matrix& pre, float slope) {
    FARE_CHECK(grad.rows() == pre.rows() && grad.cols() == pre.cols(),
               "leaky_relu_backward shape mismatch");
    Matrix g = Matrix::uninitialized(grad.rows(), grad.cols());
    const auto in = grad.flat();
    const auto p = pre.flat();
    const auto out = g.flat();
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = in[i] * leaky_relu_grad_scalar(p[i], slope);
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
