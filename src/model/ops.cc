#include "model/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace mugi {
namespace model {

void
rmsnorm(const support::MatrixF& in, std::span<const float> gain,
        support::MatrixF& out, float eps)
{
    assert(gain.size() == in.cols());
    out = support::MatrixF(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        double sum_sq = 0.0;
        const float* row = in.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            sum_sq += static_cast<double>(row[c]) * row[c];
        }
        const float inv_rms = 1.0f / std::sqrt(static_cast<float>(
                                         sum_sq / in.cols()) +
                                     eps);
        float* dst = out.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            dst[c] = row[c] * inv_rms * gain[c];
        }
    }
}

void
layernorm(const support::MatrixF& in, std::span<const float> gain,
          std::span<const float> bias, support::MatrixF& out,
          float eps)
{
    assert(gain.size() == in.cols() && bias.size() == in.cols());
    out = support::MatrixF(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        const float* row = in.row_data(r);
        double mean = 0.0;
        for (std::size_t c = 0; c < in.cols(); ++c) {
            mean += row[c];
        }
        mean /= in.cols();
        double var = 0.0;
        for (std::size_t c = 0; c < in.cols(); ++c) {
            const double d = row[c] - mean;
            var += d * d;
        }
        var /= in.cols();
        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps);
        float* dst = out.row_data(r);
        for (std::size_t c = 0; c < in.cols(); ++c) {
            dst[c] = (row[c] - static_cast<float>(mean)) * inv_std *
                         gain[c] +
                     bias[c];
        }
    }
}

void
rope_rotate_row(float* row, std::size_t num_heads,
                std::size_t head_dim, std::size_t pos)
{
    assert(head_dim % 2 == 0);
    const double p = static_cast<double>(pos);
    for (std::size_t h = 0; h < num_heads; ++h) {
        float* head = row + h * head_dim;
        for (std::size_t i = 0; i < head_dim / 2; ++i) {
            const double theta =
                p * std::pow(10000.0,
                             -2.0 * static_cast<double>(i) /
                                 static_cast<double>(head_dim));
            const float cos_t = static_cast<float>(std::cos(theta));
            const float sin_t = static_cast<float>(std::sin(theta));
            const float a = head[2 * i];
            const float b = head[2 * i + 1];
            head[2 * i] = a * cos_t - b * sin_t;
            head[2 * i + 1] = a * sin_t + b * cos_t;
        }
    }
}

void
apply_rope(support::MatrixF& x, std::size_t num_heads,
           std::size_t head_dim, std::size_t start_pos)
{
    assert(x.cols() == num_heads * head_dim);
    for (std::size_t t = 0; t < x.rows(); ++t) {
        rope_rotate_row(x.row_data(t), num_heads, head_dim,
                        start_pos + t);
    }
}

void
softmax_rows(
    support::MatrixF& scores,
    const nonlinear::NonlinearApproximator* exp_approx,
    const std::function<void(std::span<const float>)>& capture)
{
    // Only a capture reads the max-shifted row; softmax_with and
    // softmax_ref shift on their own.
    std::vector<float> shifted(capture ? scores.cols() : 0);
    for (std::size_t r = 0; r < scores.rows(); ++r) {
        float* row = scores.row_data(r);
        const std::span<float> row_span(row, scores.cols());
        if (capture) {
            const float max =
                *std::max_element(row, row + scores.cols());
            for (std::size_t c = 0; c < scores.cols(); ++c) {
                shifted[c] = row[c] - max;
            }
            capture(shifted);
        }
        if (exp_approx) {
            nonlinear::softmax_with(*exp_approx, row_span, row_span);
        } else {
            nonlinear::softmax_ref(row_span, row_span);
        }
    }
}

void
apply_activation_span(
    std::span<float> values, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture)
{
    if (capture) {
        capture(std::span<const float>(values.data(), values.size()));
    }
    if (activation) {
        assert(activation->op() == op);
        activation->apply_batch(values, values);
        return;
    }
    for (float& v : values) {
        v = static_cast<float>(nonlinear::eval_ref(op, v));
    }
}

void
apply_activation(
    support::MatrixF& x, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture)
{
    apply_activation_span(std::span<float>(x.data().data(), x.size()),
                          op, activation, capture);
}

support::MatrixF
linear(const support::MatrixF& x, const support::MatrixF& w)
{
    return linear_batched(x, w);
}

support::MatrixF
linear_batched(const support::MatrixF& x, const support::MatrixF& w)
{
    assert(x.cols() == w.rows());
    support::MatrixF c(x.rows(), w.cols(), 0.0f);
    linear_batched_range(x, w, 0, x.rows(), c);
    return c;
}

namespace {

/** Output columns one row holds in locals across the reduction. */
constexpr std::size_t kTileCols = 64;

}  // namespace

// One clone per vector width, chosen by the (ELF ifunc) loader for
// the running host.  mugi_core builds with -ffp-contract=off, so no
// clone fuses a multiply and an add into an FMA (which would change
// the bits).  The loader runs the clone resolver before
// ThreadSanitizer's runtime is up, and a GCC 12 TSan build with
// clones segfaults at load, before main; TSan builds therefore keep
// the baseline kernel.  Every clone gives the same bytes.
#if defined(__SANITIZE_THREAD__)
#define MUGI_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MUGI_TSAN_BUILD 1
#endif
#endif
#if defined(__x86_64__) && defined(__linux__) && \
    defined(__GNUC__) && !defined(MUGI_TSAN_BUILD)
#define MUGI_VECTOR_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MUGI_VECTOR_CLONES
#endif

MUGI_VECTOR_CLONES void
linear_batched_range(const support::MatrixF& x,
                     const support::MatrixF& w, std::size_t row_begin,
                     std::size_t row_end, support::MatrixF& out)
{
    assert(x.cols() == w.rows());
    assert(out.rows() == x.rows() && out.cols() == w.cols());
    assert(row_begin <= row_end && row_end <= x.rows());
    // Every cell starts from its current value and adds aik * w[k][j]
    // in ascending k, skipping aik == 0: the per-cell float-op chain
    // of the literal triple loop (support::matmul).  A row holds a
    // tile of kTileCols cells in vector registers across the whole
    // reduction; column tiles run outermost, so a tile's weight slab
    // stays in cache while every row of the range reduces against it.
    const std::size_t depth = x.cols();
    const std::size_t cols = w.cols();
    if (cols >= kTileCols) {
        for (std::size_t j0 = 0; j0 < cols; j0 += kTileCols) {
            // The leftover columns run as one full tile ending at the
            // last column.  Its lanes left of j0 overlap the previous
            // tile and are dropped, not stored: only the new lanes'
            // start values are still the untouched ones.
            const std::size_t start = std::min(j0, cols - kTileCols);
            const std::size_t keep_from = j0 - start;
            for (std::size_t i = row_begin; i < row_end; ++i) {
                const float* arow = x.row_data(i);
                float* crow = out.row_data(i) + start;
                float acc[kTileCols];
                for (std::size_t j = 0; j < kTileCols; ++j) {
                    acc[j] = crow[j];
                }
                for (std::size_t k = 0; k < depth; ++k) {
                    const float aik = arow[k];
                    if (aik == 0.0f) {
                        continue;
                    }
                    const float* brow = w.row_data(k) + start;
                    for (std::size_t j = 0; j < kTileCols; ++j) {
                        acc[j] += aik * brow[j];
                    }
                }
                for (std::size_t j = keep_from; j < kTileCols; ++j) {
                    crow[j] = acc[j];
                }
            }
        }
        return;
    }
    // Narrower than one tile: the same chain, cell by cell in memory.
    for (std::size_t i = row_begin; i < row_end; ++i) {
        const float* arow = x.row_data(i);
        float* crow = out.row_data(i);
        for (std::size_t k = 0; k < depth; ++k) {
            const float aik = arow[k];
            if (aik == 0.0f) {
                continue;
            }
            const float* brow = w.row_data(k);
            for (std::size_t j = 0; j < cols; ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
}

}  // namespace model
}  // namespace mugi
