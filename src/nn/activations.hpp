// Elementwise activations and their derivatives.
#pragma once

#include "numeric/matrix.hpp"

namespace fare {

/// y = max(0, x).
Matrix relu(const Matrix& x);
/// Gradient mask: g * 1[x > 0], where x is the pre-activation.
Matrix relu_backward(const Matrix& grad, const Matrix& pre);

/// y = x > 0 ? x : slope * x.
Matrix leaky_relu(const Matrix& x, float slope = 0.2f);
Matrix leaky_relu_backward(const Matrix& grad, const Matrix& pre, float slope = 0.2f);

inline float leaky_relu_scalar(float x, float slope = 0.2f) {
    return x > 0.0f ? x : slope * x;
}
inline float leaky_relu_grad_scalar(float x, float slope = 0.2f) {
    return x > 0.0f ? 1.0f : slope;
}

/// Row-wise softmax (numerically stabilised).
Matrix softmax_rows(const Matrix& x);

}  // namespace fare
