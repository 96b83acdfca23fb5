#include "nn/activations.hpp"

#include "common/error.hpp"
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fare {
namespace {

/// The kernel tables the relu tests run on: the scalar oracle and the
/// detected ISA (scalar again on a host without a vector table).
std::vector<simd::SimdIsa> tables() {
    return {simd::SimdIsa::kScalar, simd::detected_isa()};
}

/// 1 x 19 matrix repeating `pattern`: two 8-lane AVX2 bodies (four 4-lane
/// NEON ones) and a ragged scalar tail of 3.
Matrix tiled(std::initializer_list<float> pattern) {
    const std::vector<float> p(pattern);
    Matrix m(1, 19);
    for (std::size_t i = 0; i < m.size(); ++i) m.flat()[i] = p[i % p.size()];
    return m;
}

TEST(ActivationsTest, ReluClampsNegatives) {
    Matrix x{{-1.0f, 0.0f, 2.0f}};
    const Matrix y = relu(x);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
}

TEST(ActivationsTest, ReluBackwardMasksByPreActivation) {
    for (const simd::SimdIsa isa : tables()) {
        simd::SimdIsaScope pin(isa);
        const Matrix g = relu_backward(tiled({3.0f}), tiled({-1.0f, 0.5f}));
        for (std::size_t i = 0; i < g.size(); ++i)
            EXPECT_FLOAT_EQ(g.flat()[i], i % 2 == 0 ? 0.0f : 3.0f)
                << simd::isa_name(isa) << " " << i;
    }
}

TEST(ActivationsTest, ReluSignedZeroAndNaN) {
    const float nan = std::nanf("");
    for (const simd::SimdIsa isa : tables()) {
        simd::SimdIsaScope pin(isa);
        const Matrix y = relu(tiled({-0.0f, nan, -2.0f}));
        for (std::size_t i = 0; i < y.size(); ++i) {
            EXPECT_EQ(y.flat()[i], 0.0f) << simd::isa_name(isa) << " " << i;
            EXPECT_FALSE(std::signbit(y.flat()[i]))  // +0, never -0
                << simd::isa_name(isa) << " " << i;
        }
        // A NaN pre-activation keeps the gradient (it is not <= 0); +-0
        // zeroes it.
        const Matrix g = relu_backward(tiled({5.0f, 5.0f, 5.0f, -0.0f}),
                                       tiled({nan, -0.0f, 0.0f, 1.0f}));
        for (std::size_t i = 0; i < g.size(); ++i) {
            const float out = g.flat()[i];
            switch (i % 4) {
                case 0: EXPECT_EQ(out, 5.0f) << simd::isa_name(isa) << " " << i; break;
                case 1:
                case 2:
                    EXPECT_EQ(out, 0.0f) << simd::isa_name(isa) << " " << i;
                    EXPECT_FALSE(std::signbit(out)) << simd::isa_name(isa) << " " << i;
                    break;
                default:  // the gradient passes through as is
                    EXPECT_TRUE(std::signbit(out)) << simd::isa_name(isa) << " " << i;
            }
        }
    }
}

TEST(ActivationsTest, LeakyReluSlope) {
    EXPECT_FLOAT_EQ(leaky_relu_scalar(-2.0f, 0.2f), -0.4f);
    EXPECT_FLOAT_EQ(leaky_relu_scalar(2.0f, 0.2f), 2.0f);
    EXPECT_FLOAT_EQ(leaky_relu_grad_scalar(-1.0f, 0.2f), 0.2f);
    EXPECT_FLOAT_EQ(leaky_relu_grad_scalar(1.0f, 0.2f), 1.0f);
}

TEST(ActivationsTest, LeakyReluMatrixMatchesScalar) {
    Matrix x{{-1.0f, 2.0f}};
    const Matrix y = leaky_relu(x, 0.1f);
    EXPECT_FLOAT_EQ(y(0, 0), -0.1f);
    EXPECT_FLOAT_EQ(y(0, 1), 2.0f);
    Matrix grad{{1.0f, 1.0f}};
    const Matrix g = leaky_relu_backward(grad, x, 0.1f);
    EXPECT_FLOAT_EQ(g(0, 0), 0.1f);
    EXPECT_FLOAT_EQ(g(0, 1), 1.0f);
}

TEST(ActivationsTest, SoftmaxRowsSumToOne) {
    Matrix x{{1.0f, 2.0f, 3.0f}, {-5.0f, 0.0f, 5.0f}};
    const Matrix y = softmax_rows(x);
    for (std::size_t r = 0; r < 2; ++r) {
        float sum = 0.0f;
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_GT(y(r, c), 0.0f);
            sum += y(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
    }
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits) {
    Matrix x{{1000.0f, 1001.0f}};
    const Matrix y = softmax_rows(x);
    EXPECT_FALSE(std::isnan(y(0, 0)));
    EXPECT_NEAR(y(0, 1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
}

TEST(ActivationsTest, SoftmaxMonotone) {
    Matrix x{{0.0f, 1.0f, 2.0f}};
    const Matrix y = softmax_rows(x);
    EXPECT_LT(y(0, 0), y(0, 1));
    EXPECT_LT(y(0, 1), y(0, 2));
}

TEST(ActivationsTest, ReluBackwardShapeValidated) {
    Matrix pre(2, 2), grad(2, 3);
    EXPECT_THROW(relu_backward(grad, pre), InvalidArgument);
}

}  // namespace
}  // namespace fare
