#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace fare {
namespace {

/// Minimise f(w) = 0.5 * ||w - target||^2 — gradient is (w - target).
void run_quadratic(Optimizer& opt, int steps, Matrix& w, const Matrix& target) {
    Matrix grad(w.rows(), w.cols());
    for (int s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < w.size(); ++i)
            grad.flat()[i] = w.flat()[i] - target.flat()[i];
        opt.step({&w}, {&grad});
    }
}

TEST(AdamTest, ConvergesOnQuadratic) {
    Adam adam(0.05f);
    Matrix w(2, 2, 0.0f);
    Matrix target{{1.0f, -2.0f}, {0.5f, 3.0f}};
    run_quadratic(adam, 400, w, target);
    EXPECT_LT(max_abs_diff(w, target), 0.05f);
}

TEST(SgdTest, ConvergesOnQuadratic) {
    Sgd sgd(0.1f, 0.9f);
    Matrix w(2, 2, 0.0f);
    Matrix target{{1.0f, -2.0f}, {0.5f, 3.0f}};
    run_quadratic(sgd, 300, w, target);
    EXPECT_LT(max_abs_diff(w, target), 0.05f);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
    // With bias correction, the very first Adam step is ~lr * sign(grad).
    Adam adam(0.01f);
    Matrix w(1, 1, 0.0f);
    Matrix grad(1, 1, 5.0f);
    adam.step({&w}, {&grad});
    EXPECT_NEAR(w(0, 0), -0.01f, 1e-4f);
}

TEST(AdamTest, ZeroGradientNoMove) {
    Adam adam(0.01f);
    Matrix w(1, 1, 1.0f);
    Matrix grad(1, 1, 0.0f);
    adam.step({&w}, {&grad});
    EXPECT_FLOAT_EQ(w(0, 0), 1.0f);
}

/// Five Adam steps on ragged parameter shapes with the given kernel table.
std::vector<Matrix> adam_steps_on(simd::SimdIsa isa) {
    simd::SimdIsaScope pin(isa);
    std::mt19937 gen(1412);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<Matrix> params{Matrix(1, 1), Matrix(3, 7), Matrix(16, 9)};
    std::vector<Matrix> grads = params;
    for (Matrix& p : params)
        for (float& x : p.flat()) x = dist(gen);
    std::vector<Matrix*> pp, gp;
    for (std::size_t i = 0; i < params.size(); ++i) {
        pp.push_back(&params[i]);
        gp.push_back(&grads[i]);
    }
    Adam adam(0.01f);
    for (int step = 0; step < 5; ++step) {
        for (Matrix& g : grads)
            for (float& x : g.flat()) x = dist(gen) * (step == 3 ? 1e-30f : 1.0f);
        adam.step(pp, gp);
    }
    return params;
}

TEST(AdamTest, ByteIdenticalOnScalarAndDetectedTables) {
    const std::vector<Matrix> scalar = adam_steps_on(simd::SimdIsa::kScalar);
    const std::vector<Matrix> detected = adam_steps_on(simd::detected_isa());
    ASSERT_EQ(scalar.size(), detected.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(0, std::memcmp(scalar[i].flat().data(), detected[i].flat().data(),
                                 scalar[i].size() * sizeof(float)))
            << "param " << i << " on " << simd::isa_name(simd::detected_isa());
}

TEST(SgdTest, MomentumAccumulates) {
    Sgd sgd(0.1f, 0.9f);
    Matrix w(1, 1, 0.0f);
    Matrix grad(1, 1, 1.0f);
    sgd.step({&w}, {&grad});
    const float first = w(0, 0);
    sgd.step({&w}, {&grad});
    const float second_step = w(0, 0) - first;
    EXPECT_LT(second_step, first);  // second move larger in magnitude (negative)
    EXPECT_NEAR(second_step, -0.19f, 1e-5f);
}

TEST(OptimizerTest, MultipleParamsIndependent) {
    Adam adam(0.01f);
    Matrix a(1, 1, 0.0f), b(1, 1, 0.0f);
    Matrix ga(1, 1, 1.0f), gb(1, 1, -1.0f);
    adam.step({&a, &b}, {&ga, &gb});
    EXPECT_LT(a(0, 0), 0.0f);
    EXPECT_GT(b(0, 0), 0.0f);
}

TEST(OptimizerTest, MismatchedSizesRejected) {
    Adam adam(0.01f);
    Matrix w(1, 1), g(1, 1);
    EXPECT_THROW(adam.step({&w}, {}), InvalidArgument);
}

TEST(OptimizerTest, RebindingDifferentModelRejected) {
    Adam adam(0.01f);
    Matrix w(1, 1), g(1, 1);
    adam.step({&w}, {&g});
    Matrix w2(1, 1), g2(1, 1);
    EXPECT_THROW(adam.step({&w, &w2}, {&g, &g2}), InvalidArgument);
}

TEST(OptimizerTest, InvalidLearningRateRejected) {
    EXPECT_THROW(Adam(-0.1f), InvalidArgument);
    EXPECT_THROW(Sgd(0.0f), InvalidArgument);
}

}  // namespace
}  // namespace fare
