#include "model/ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "support/rng.h"
#include "support/thread_pool.h"

namespace mugi {
namespace model {
namespace {

TEST(Ops, RmsNormUnitScale)
{
    support::MatrixF x(2, 4);
    x.at(0, 0) = 1.0f; x.at(0, 1) = -1.0f;
    x.at(0, 2) = 1.0f; x.at(0, 3) = -1.0f;
    x.at(1, 0) = 2.0f; x.at(1, 1) = -2.0f;
    x.at(1, 2) = 2.0f; x.at(1, 3) = -2.0f;
    std::vector<float> gain(4, 1.0f);
    support::MatrixF out;
    rmsnorm(x, gain, out);
    // Both rows normalize to unit RMS regardless of input scale.
    for (std::size_t r = 0; r < 2; ++r) {
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < 4; ++c) {
            sum_sq += out.at(r, c) * out.at(r, c);
        }
        EXPECT_NEAR(std::sqrt(sum_sq / 4.0), 1.0, 1e-4) << r;
    }
}

TEST(Ops, LayerNormZeroMeanUnitVar)
{
    std::mt19937 rng(281);
    support::MatrixF x(4, 64);
    support::fill_gaussian(x, rng, 3.0f, 2.0f);
    std::vector<float> gain(64, 1.0f), bias(64, 0.0f);
    support::MatrixF out;
    layernorm(x, gain, bias, out);
    for (std::size_t r = 0; r < 4; ++r) {
        double mean = 0.0, var = 0.0;
        for (std::size_t c = 0; c < 64; ++c) mean += out.at(r, c);
        mean /= 64.0;
        for (std::size_t c = 0; c < 64; ++c) {
            var += (out.at(r, c) - mean) * (out.at(r, c) - mean);
        }
        var /= 64.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Ops, RopePreservesNorm)
{
    std::mt19937 rng(283);
    support::MatrixF x(8, 32);  // 2 heads x head_dim 16.
    support::fill_gaussian(x, rng, 0.0f, 1.0f);
    support::MatrixF before = x;
    apply_rope(x, 2, 16, 5);
    for (std::size_t t = 0; t < 8; ++t) {
        double n_before = 0.0, n_after = 0.0;
        for (std::size_t c = 0; c < 32; ++c) {
            n_before += before.at(t, c) * before.at(t, c);
            n_after += x.at(t, c) * x.at(t, c);
        }
        // Rotations are norm-preserving.
        EXPECT_NEAR(n_after, n_before, 1e-3 * n_before);
    }
}

TEST(Ops, RopeRelativePositionProperty)
{
    // The defining property of RoPE: <rope(q, m), rope(k, n)> depends
    // only on m - n.  Check a single head pair at two offsets.
    const std::size_t hd = 16;
    support::MatrixF q(1, hd), k(1, hd);
    std::mt19937 rng(293);
    support::fill_gaussian(q, rng, 0.0f, 1.0f);
    support::fill_gaussian(k, rng, 0.0f, 1.0f);

    const auto rotated_dot = [&](std::size_t pos_q,
                                 std::size_t pos_k) {
        support::MatrixF qq = q, kk = k;
        apply_rope(qq, 1, hd, pos_q);
        apply_rope(kk, 1, hd, pos_k);
        float dot = 0.0f;
        for (std::size_t i = 0; i < hd; ++i) {
            dot += qq.at(0, i) * kk.at(0, i);
        }
        return dot;
    };
    EXPECT_NEAR(rotated_dot(7, 3), rotated_dot(14, 10), 1e-3);
    EXPECT_NEAR(rotated_dot(2, 2), rotated_dot(9, 9), 1e-3);
}

TEST(Ops, RopeAtPositionZeroIsIdentity)
{
    support::MatrixF x(1, 8);
    for (std::size_t i = 0; i < 8; ++i) x.at(0, i) = float(i + 1);
    support::MatrixF before = x;
    apply_rope(x, 1, 8, 0);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(x.at(0, i), before.at(0, i), 1e-6);
    }
}

TEST(Ops, SoftmaxRowsNormalizes)
{
    std::mt19937 rng(307);
    support::MatrixF scores(6, 40);
    support::fill_gaussian(scores, rng, 0.0f, 3.0f);
    softmax_rows(scores, nullptr);
    for (std::size_t r = 0; r < 6; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 40; ++c) sum += scores.at(r, c);
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxRowsCaptureSeesShiftedInputs)
{
    support::MatrixF scores(1, 4);
    scores.at(0, 0) = 1.0f;
    scores.at(0, 1) = 3.0f;
    scores.at(0, 2) = 2.0f;
    scores.at(0, 3) = 0.0f;
    std::vector<float> captured;
    softmax_rows(scores, nullptr, [&](std::span<const float> row) {
        captured.assign(row.begin(), row.end());
    });
    ASSERT_EQ(captured.size(), 4u);
    // Max-subtracted: the maximum becomes 0, others negative.
    EXPECT_EQ(captured[1], 0.0f);
    EXPECT_EQ(captured[0], -2.0f);
    EXPECT_EQ(captured[3], -3.0f);
}

TEST(Ops, SoftmaxRowsHandlesMaskedRow)
{
    support::MatrixF scores(1, 3);
    scores.at(0, 0) = 0.5f;
    scores.at(0, 1) = -INFINITY;  // Causal mask.
    scores.at(0, 2) = -INFINITY;
    softmax_rows(scores, nullptr);
    EXPECT_NEAR(scores.at(0, 0), 1.0f, 1e-6);
    EXPECT_EQ(scores.at(0, 1), 0.0f);
}

TEST(Ops, ApplyActivationExactMatchesReference)
{
    std::mt19937 rng(311);
    support::MatrixF x(3, 16);
    support::fill_gaussian(x, rng, 0.0f, 2.0f);
    support::MatrixF expected = x;
    apply_activation(x, nonlinear::NonlinearOp::kSilu, nullptr);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(
            x.data()[i],
            nonlinear::silu_ref(expected.data()[i]), 1e-6);
    }
}

bool
same_bytes(const support::MatrixF& a, const support::MatrixF& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

TEST(Ops, LinearBatchedBitIdenticalToMatmulOverRaggedShapes)
{
    // The tiled kernel must reproduce the literal triple loop byte
    // for byte: column counts below, at and across the tile width
    // (with the overlapping last tile), row-range splits as the
    // pooled step uses them, and the zero-skip on planted zeros, a
    // -0.0f activation, an all-zero row and a weight row of inf/NaN
    // that only zero activations reach.
    std::mt19937 rng(321);
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t cols : {1u, 15u, 63u, 64u, 65u, 128u, 341u,
                                   512u}) {
        for (const std::size_t rows : {1u, 4u, 17u}) {
            for (const std::size_t depth : {1u, 24u, 130u}) {
                support::MatrixF x(rows, depth);
                support::MatrixF w(depth, cols);
                support::fill_gaussian(x, rng, 0.0f, 1.0f);
                support::fill_gaussian(w, rng, 0.0f, 0.5f);
                x.at(0, depth / 2) = 0.0f;
                x.at(rows - 1, 0) = -0.0f;
                if (rows > 1) {
                    for (std::size_t k = 0; k < depth; ++k) {
                        x.at(rows / 2, k) = 0.0f;
                    }
                }
                if (depth > 1) {
                    const std::size_t bad = depth - 1;
                    for (std::size_t j = 0; j < cols; ++j) {
                        w.at(bad, j) = j % 2 == 0 ? inf : nan;
                    }
                    for (std::size_t i = 0; i < rows; ++i) {
                        x.at(i, bad) = i % 2 == 0 ? 0.0f : -0.0f;
                    }
                }
                const support::MatrixF reference =
                    support::matmul(x, w);
                const std::string shape =
                    std::to_string(rows) + "x" +
                    std::to_string(depth) + "x" +
                    std::to_string(cols);
                for (const float v : reference.data()) {
                    ASSERT_TRUE(std::isfinite(v)) << shape;
                }
                EXPECT_TRUE(
                    same_bytes(linear_batched(x, w), reference))
                    << shape;
                EXPECT_TRUE(same_bytes(linear(x, w), reference))
                    << shape;
                for (const std::size_t parts : {2u, 3u, 17u}) {
                    support::MatrixF split(rows, cols, 0.0f);
                    for (const auto& [begin, end] :
                         support::split_ranges(rows, parts)) {
                        linear_batched_range(x, w, begin, end, split);
                    }
                    EXPECT_TRUE(same_bytes(split, reference))
                        << shape << " in " << parts << " parts";
                }
            }
        }
    }
}

TEST(Ops, RopeRotateRowMatchesApplyRopeAtEveryPosition)
{
    // decode_layer_batch rotates each batch row at its own session's
    // position via rope_rotate_row; it must equal apply_rope on a
    // one-row matrix at the same start position.
    std::mt19937 rng(331);
    for (const std::size_t pos : {0u, 1u, 17u, 100u}) {
        support::MatrixF row(1, 2 * 8);
        support::fill_gaussian(row, rng, 0.0f, 1.0f);
        support::MatrixF expected = row;
        apply_rope(expected, 2, 8, pos);
        rope_rotate_row(row.row_data(0), 2, 8, pos);
        EXPECT_TRUE(row == expected) << "pos " << pos;
    }
}

TEST(Ops, ApplyActivationSpanMatchesMatrixForm)
{
    std::mt19937 rng(341);
    support::MatrixF x(1, 32);
    support::fill_gaussian(x, rng, 0.0f, 2.0f);
    support::MatrixF as_matrix = x;
    std::vector<float> as_span(x.data());
    apply_activation(as_matrix, nonlinear::NonlinearOp::kGelu,
                     nullptr);
    apply_activation_span(as_span, nonlinear::NonlinearOp::kGelu,
                          nullptr);
    for (std::size_t i = 0; i < as_span.size(); ++i) {
        EXPECT_EQ(as_span[i], as_matrix.data()[i]) << i;
    }
}

}  // namespace
}  // namespace model
}  // namespace mugi
