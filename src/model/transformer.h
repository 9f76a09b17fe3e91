#ifndef MUGI_MODEL_TRANSFORMER_H_
#define MUGI_MODEL_TRANSFORMER_H_

/**
 * @file
 * The from-scratch transformer substrate used for the accuracy and
 * profiling studies (Sec. 3, 5.1): a faithful pre-norm transformer
 * with GQA, RoPE, SwiGLU/GELU FFN, causal or bidirectional attention,
 * pluggable nonlinear implementations (global or per layer, the hook
 * the Fig. 6/7 sweeps use), a profiling capture hook (Fig. 4), WOQ
 * fake-quantization of the weights, and a KV-cached decode path with
 * optional KVQ.
 */

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "model/config.h"
#include "model/ops.h"
#include "nonlinear/approximator.h"
#include "quant/kv_cache.h"
#include "support/matrix.h"

namespace mugi {
namespace support {
class ThreadPool;
}  // namespace support

namespace model {

/** Which nonlinear implementations a forward pass should use. */
struct NonlinearHooks {
    /** exp used inside attention softmax; nullptr = exact. */
    const nonlinear::NonlinearApproximator* softmax_exp = nullptr;
    /** FFN activation (SiLU/GELU); nullptr = exact. */
    const nonlinear::NonlinearApproximator* activation = nullptr;
};

/** Profiling callback: (op, layer, raw nonlinear inputs). */
using CaptureFn =
    std::function<void(nonlinear::NonlinearOp, std::size_t,
                       std::span<const float>)>;

/** Weights of one transformer layer. */
struct LayerWeights {
    support::MatrixF wq;      ///< [d, d]
    support::MatrixF wk;      ///< [d, kv_dim]
    support::MatrixF wv;      ///< [d, kv_dim]
    support::MatrixF wo;      ///< [d, d]
    support::MatrixF w_gate;  ///< [d, ff] (gated FFN only)
    support::MatrixF w_up;    ///< [d, ff]
    support::MatrixF w_down;  ///< [ff, d]
    std::vector<float> norm1_gain, norm1_bias;
    std::vector<float> norm2_gain, norm2_bias;
};

/** A complete transformer model with synthetic weights. */
class TransformerModel {
  public:
    /**
     * Build a model with seeded Gaussian weights (std 0.02, residual
     * projections scaled by 1/sqrt(2 * layers) as in GPT-2-style
     * init, which keeps activations in a realistic range).
     */
    TransformerModel(const ModelConfig& config, std::uint32_t seed);

    const ModelConfig& config() const { return config_; }

    /** Set the hooks used for every layer. */
    void set_hooks(const NonlinearHooks& hooks)
    {
        global_hooks_ = hooks;
    }

    /** Per-layer override (Fig. 7 tuning); nullopt = global. */
    void set_layer_hooks(std::size_t layer,
                         std::optional<NonlinearHooks> hooks);

    /**
     * Master switch: when disabled, every layer runs exact
     * nonlinearities regardless of installed hooks.  The accuracy
     * harness uses this for the teacher pass so per-layer tuning
     * state cannot leak into the reference.
     */
    void set_hooks_enabled(bool enabled) { hooks_enabled_ = enabled; }
    bool hooks_enabled() const { return hooks_enabled_; }

    /** Install a profiling capture (Fig. 4); empty disables. */
    void set_capture(CaptureFn capture)
    {
        capture_ = std::move(capture);
    }

    /**
     * Fake-quantize every weight matrix through INT4 group
     * quantization (WOQ, Sec. 2.3.2): weights are replaced by their
     * dequantized values, so the forward pass sees exactly the
     * precision the INT4 datapath would.
     */
    void apply_woq(std::size_t group_size);

    /**
     * Full-sequence forward pass over token ids; returns next-token
     * logits per position, shape [T, vocab].
     */
    support::MatrixF forward_tokens(
        std::span<const int> tokens) const;

    /**
     * Forward pass over raw embeddings (vision-style input), shape
     * [T, d_model]; returns logits per position.
     */
    support::MatrixF forward_embeddings(
        const support::MatrixF& embeddings) const;

    /** Embedding row for a token (used by the decode path). */
    std::span<const float> embedding(int token) const;

    std::size_t num_layers() const { return layers_.size(); }
    const LayerWeights& layer(std::size_t i) const
    {
        return layers_[i];
    }
    LayerWeights& mutable_layer(std::size_t i) { return layers_[i]; }

    /**
     * One decode layer step against a KV cache holding the context;
     * @p x is the [1, d] layer input.  DecodeSession runs on it, and
     * it is the sequential oracle decode_layer_batch is held to.
     */
    support::MatrixF decode_layer(std::size_t layer_idx,
                                  const support::MatrixF& x,
                                  quant::KvCache& cache) const;

    /**
     * Same, with the nonlinear hooks supplied by the caller instead
     * of the model's installed hooks.  This is the serving path
     * (serve/session.h): each request carries its own per-layer
     * window tuning, so the shared model stays immutable.
     */
    support::MatrixF decode_layer(std::size_t layer_idx,
                                  const support::MatrixF& x,
                                  quant::KvCache& cache,
                                  const NonlinearHooks& hooks) const;

    /**
     * Batched layer over a stack of token rows ([T, d]): each
     * projection (Q/K/V, output, FFN) runs as one batched GEMM over
     * the whole stack (linear_batched streams each weight row once
     * per call instead of once per row), while RoPE, KV append,
     * attention, softmax and the FFN activation run per row against
     * row r's cache (@p caches[r]) and nonlinear hooks (@p hooks[r]).
     * Weights are read live from the layer, so mutation between
     * steps (apply_woq, mutable_layer) behaves exactly as in the
     * sequential path.
     *
     * Consecutive rows that share a cache form a *causal run* -- a
     * prefill chunk, or a session listed twice in a row of a decode
     * batch.  A run RoPE-rotates and appends every row's K/V at
     * cache.length() in row order, gathers each KV head once over
     * the grown cache, and lets its j-th row attend exactly the
     * first base + j + 1 positions (base = the length before the
     * run).  Runs are processed in row order, so rows of one cache
     * in separate runs also see each other in order.  Row r's output
     * is therefore bit-identical to feeding the rows one at a time,
     * in row order, through decode_layer(layer_idx, x.row(r),
     * *caches[r], *hooks[r]) -- the contract serve::Engine's fused
     * decode and batched prefill rely on (enforced by
     * tests/serve/engine_test.cc).
     *
     * With a non-null @p pool the layer's stages fan out across its
     * workers -- per-projection row-range tasks for the batched
     * GEMMs, run-range tasks for RoPE + attention, row-range tasks
     * for the FFN activation -- joining at each stage boundary.  The
     * attention stage splits only when every run has a distinct
     * cache; otherwise it runs serially, so two rows of one cache
     * never go to different tasks.  Every task writes a disjoint row
     * range and runs the identical per-cell float-op sequence, so
     * the pooled result is bit-identical to pool == nullptr (pinned
     * by tests/concurrency/pooled_step_test.cc).  When a profiling
     * capture is installed the layer runs serially regardless (the
     * capture stream is ordered by layer, then row).
     */
    support::MatrixF decode_layer_batch(
        std::size_t layer_idx, const support::MatrixF& x,
        std::span<quant::KvCache* const> caches,
        std::span<const NonlinearHooks* const> hooks,
        support::ThreadPool* pool = nullptr) const;

    const std::vector<float>& final_norm_gain() const
    {
        return final_norm_gain_;
    }
    const support::MatrixF& lm_head() const { return lm_head_; }

    /** Hooks in effect for @p layer. */
    const NonlinearHooks& hooks_for(std::size_t layer) const;

  private:
    support::MatrixF run_layers(support::MatrixF x) const;
    support::MatrixF attention(std::size_t layer_idx,
                               const support::MatrixF& x_norm) const;
    support::MatrixF ffn(std::size_t layer_idx,
                         const support::MatrixF& x_norm,
                         const NonlinearHooks& hooks) const;
    void norm(const support::MatrixF& in, std::span<const float> gain,
              std::span<const float> bias,
              support::MatrixF& out) const;
    /** Profiling capture for layer @p layer_idx's FFN activation
        (empty when no capture is installed); shared by ffn() and
        decode_layer_batch so both paths report identically. */
    std::function<void(std::span<const float>)>
    activation_capture(std::size_t layer_idx) const;
    /** Reshape one row's K/V into per-head vectors and append. */
    void append_kv(const float* k_row, const float* v_row,
                   quant::KvCache& cache) const;
    /**
     * One query head's attention over the first @p positions rows of
     * a KV head's gathered [positions, head_dim] scratch: score,
     * softmax with @p hooks.softmax_exp, and accumulate the weighted
     * values into @p out_head (zero-initialized, [head_dim]).  Shared
     * by attend_one and attend_run so both execute the identical
     * float-op sequence.
     */
    void attend_head(const float* q_head,
                     const support::MatrixF& k_scratch,
                     const support::MatrixF& v_scratch,
                     std::size_t positions,
                     const NonlinearHooks& hooks,
                     float* out_head) const;
    /**
     * One token's cached attention (decode_layer): append the new
     * K/V row, gather each KV head's whole resident sequence into
     * contiguous scratch once (KvCache::read_keys / read_values) for
     * every query head of its GQA group, and attend it into
     * @p out_row (zero-initialized, [d_model]).
     */
    void attend_one(const float* q_row, const float* k_row,
                    const float* v_row, quant::KvCache& cache,
                    const NonlinearHooks& hooks,
                    float* out_row) const;
    /**
     * The causal run [@p begin, @p end) of decode_layer_batch: all
     * rows share @p cache.  RoPE-rotates q/k at base + j, appends
     * every row, gathers each KV head once over [0, base + T), and
     * row begin + j attends its first base + j + 1 positions into
     * @p out's row.
     */
    void attend_run(support::MatrixF& q, support::MatrixF& k,
                    const support::MatrixF& v, std::size_t begin,
                    std::size_t end, quant::KvCache& cache,
                    std::span<const NonlinearHooks* const> hooks,
                    support::MatrixF& out) const;

    ModelConfig config_;
    std::vector<LayerWeights> layers_;
    std::vector<std::optional<NonlinearHooks>> layer_hooks_;
    NonlinearHooks global_hooks_;
    bool hooks_enabled_ = true;
    CaptureFn capture_;
    support::MatrixF embedding_;       ///< [vocab, d]
    support::MatrixF lm_head_;         ///< [d, vocab]
    std::vector<float> final_norm_gain_, final_norm_bias_;
};

/**
 * Autoregressive decode session: maintains one KV cache per layer
 * (optionally KVQ-quantized) and produces logits token by token.
 */
class DecodeSession {
  public:
    DecodeSession(const TransformerModel& model,
                  quant::KvPrecision kv_precision);

    /** Consume @p token, return logits for the next token. */
    std::vector<float> step(int token);

    /** Context length so far. */
    std::size_t position() const { return position_; }

    /** Total KV-cache footprint across layers, in bytes. */
    std::size_t kv_bytes() const;

  private:
    const TransformerModel& model_;
    std::vector<quant::KvCache> caches_;
    std::size_t position_ = 0;
};

}  // namespace model
}  // namespace mugi

#endif  // MUGI_MODEL_TRANSFORMER_H_
