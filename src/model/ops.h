#ifndef MUGI_MODEL_OPS_H_
#define MUGI_MODEL_OPS_H_

/**
 * @file
 * Tensor-level building blocks of the transformer substrate: RMSNorm,
 * LayerNorm, rotary position embeddings (RoPE), row-wise softmax with
 * a pluggable exp, and the pluggable FFN activation.
 */

#include <functional>
#include <span>

#include "nonlinear/approximator.h"
#include "support/matrix.h"

namespace mugi {
namespace model {

/** RMSNorm: x / rms(x) * gain, per row. */
void rmsnorm(const support::MatrixF& in, std::span<const float> gain,
             support::MatrixF& out, float eps = 1e-5f);

/** LayerNorm: (x - mean) / std * gain + bias, per row. */
void layernorm(const support::MatrixF& in,
               std::span<const float> gain,
               std::span<const float> bias, support::MatrixF& out,
               float eps = 1e-5f);

/**
 * Rotary position embeddings applied in place to a [T, H*hd] matrix:
 * rotate each consecutive pair of dims in each head by position-
 * dependent angles (theta = 10000^{-2i/hd}).
 *
 * @param x In/out activations, row t is position start_pos + t.
 */
void apply_rope(support::MatrixF& x, std::size_t num_heads,
                std::size_t head_dim, std::size_t start_pos);

/**
 * RoPE rotation of a single [H*hd] row at position @p pos -- the
 * per-row body of apply_rope, exposed so the fused batched decode
 * path can rotate each batch row at its own session's position with
 * the exact float-op sequence of the sequential path.
 */
void rope_rotate_row(float* row, std::size_t num_heads,
                     std::size_t head_dim, std::size_t pos);

/**
 * Row-wise softmax where exp comes from @p exp_approx (nullptr =
 * exact).  An optional @p capture receives each row's max-subtracted
 * inputs before exponentiation (profiling hook for Fig. 4).
 */
void softmax_rows(
    support::MatrixF& scores,
    const nonlinear::NonlinearApproximator* exp_approx,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * Apply @p activation element-wise (nullptr = exact @p op).  The
 * optional @p capture receives the raw pre-activation values.
 */
void apply_activation(
    support::MatrixF& x, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * Span form of apply_activation: one capture + one apply_batch over
 * @p values.  The batched decode path calls this per batch row so a
 * windowed approximator (whose sliding window is re-chosen per group
 * of mapping_rows inputs) sees exactly the per-request input stream
 * the sequential path feeds it.
 */
void apply_activation_span(
    std::span<float> values, nonlinear::NonlinearOp op,
    const nonlinear::NonlinearApproximator* activation,
    const std::function<void(std::span<const float>)>& capture = {});

/**
 * y = x * w, where w has shape [in, out]: linear_batched() under the
 * name the single-request paths use, so every float projection in
 * model/ runs one kernel.
 */
support::MatrixF linear(const support::MatrixF& x,
                        const support::MatrixF& w);

/**
 * y = x * w, the float GEMM of every projection and LM head: a
 * register-tiled kernel cloned per vector width (AVX-512, AVX2,
 * baseline x86-64) and chosen at load time.  Bit-identical to the
 * literal triple loop support::matmul on every host: each output
 * cell adds its k-products in ascending k from zero, skipping
 * zero activations, with no multiply-add contraction (enforced by
 * tests/model/ops_test over ragged shapes).
 */
support::MatrixF linear_batched(const support::MatrixF& x,
                                const support::MatrixF& w);

/**
 * Row-range slice of linear_batched: accumulate x[row_begin, row_end)
 * times w into the same rows of @p out (which must be pre-sized
 * [x.rows(), w.cols()] and zeroed in that range).  Each output cell
 * runs the identical ascending-k accumulation as linear_batched, so
 * partitioning the batch rows across threads and joining reproduces
 * linear_batched's result bit for bit -- the decode-projection task
 * body of the pooled step path.
 */
void linear_batched_range(const support::MatrixF& x,
                          const support::MatrixF& w,
                          std::size_t row_begin, std::size_t row_end,
                          support::MatrixF& out);

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_OPS_H_
