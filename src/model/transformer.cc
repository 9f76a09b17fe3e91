#include "model/transformer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <utility>

#include "quant/group_quant.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace mugi {
namespace model {
namespace {

support::MatrixF
gaussian_matrix(std::size_t rows, std::size_t cols, std::mt19937& rng,
                float stddev)
{
    support::MatrixF m(rows, cols);
    support::fill_gaussian(m, rng, 0.0f, stddev);
    return m;
}

}  // namespace

TransformerModel::TransformerModel(const ModelConfig& config,
                                   std::uint32_t seed)
    : config_(config), layer_hooks_(config.num_layers)
{
    std::mt19937 rng(seed);
    const std::size_t d = config_.d_model;
    const std::size_t kv_dim =
        config_.num_kv_heads * config_.head_dim();
    // Variance-aware init: the pre-norm input is ~unit RMS, so a
    // weight std of a/sqrt(fan_in) yields outputs ~ N(0, a^2).  The
    // chosen gains land the nonlinear input distributions in the
    // ranges Fig. 4 reports: attention scores with std ~2.2 (softmax
    // inputs spreading to ~-16 with exponents clustered in [-3, 4])
    // and FFN pre-activations with std ~2.
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
    const float inv_sqrt_ff =
        1.0f / std::sqrt(static_cast<float>(config_.d_ff));
    const float resid_gain =
        1.0f / std::sqrt(2.0f * config_.num_layers);

    embedding_ = gaussian_matrix(config_.vocab, d, rng, 1.0f);
    lm_head_ = gaussian_matrix(d, config_.vocab, rng, inv_sqrt_d);
    final_norm_gain_.assign(d, 1.0f);
    final_norm_bias_.assign(d, 0.0f);

    layers_.reserve(config_.num_layers);
    for (std::size_t l = 0; l < config_.num_layers; ++l) {
        LayerWeights w;
        const float qk_std = 1.5f * inv_sqrt_d;
        w.wq = gaussian_matrix(d, d, rng, qk_std);
        w.wk = gaussian_matrix(d, kv_dim, rng, qk_std);
        w.wv = gaussian_matrix(d, kv_dim, rng, inv_sqrt_d);
        w.wo = gaussian_matrix(d, d, rng, inv_sqrt_d * resid_gain);
        if (config_.gated_ffn()) {
            w.w_gate = gaussian_matrix(d, config_.d_ff, rng,
                                       2.0f * inv_sqrt_d);
        }
        w.w_up = gaussian_matrix(d, config_.d_ff, rng,
                                 2.0f * inv_sqrt_d);
        w.w_down = gaussian_matrix(config_.d_ff, d, rng,
                                   inv_sqrt_ff * resid_gain);
        w.norm1_gain.assign(d, 1.0f);
        w.norm1_bias.assign(d, 0.0f);
        w.norm2_gain.assign(d, 1.0f);
        w.norm2_bias.assign(d, 0.0f);
        layers_.push_back(std::move(w));
    }
}

void
TransformerModel::set_layer_hooks(std::size_t layer,
                                  std::optional<NonlinearHooks> hooks)
{
    assert(layer < layer_hooks_.size());
    layer_hooks_[layer] = hooks;
}

const NonlinearHooks&
TransformerModel::hooks_for(std::size_t layer) const
{
    static const NonlinearHooks kExactHooks{};
    if (!hooks_enabled_) {
        return kExactHooks;
    }
    if (layer < layer_hooks_.size() &&
        layer_hooks_[layer].has_value()) {
        return *layer_hooks_[layer];
    }
    return global_hooks_;
}

void
TransformerModel::apply_woq(std::size_t group_size)
{
    const auto fake_quant = [&](support::MatrixF& w) {
        if (w.size() == 0) return;
        // Quantize along the reduction (input) dimension: transpose
        // view not needed because groups run along columns of each
        // row, matching a [in, out] layout grouped per output row
        // after transposition; for the error model the orientation is
        // immaterial.
        const quant::QuantizedMatrix q =
            quant::quantize_int4(w, group_size);
        w = quant::dequantize(q);
    };
    for (LayerWeights& layer : layers_) {
        fake_quant(layer.wq);
        fake_quant(layer.wk);
        fake_quant(layer.wv);
        fake_quant(layer.wo);
        fake_quant(layer.w_gate);
        fake_quant(layer.w_up);
        fake_quant(layer.w_down);
    }
}

void
TransformerModel::norm(const support::MatrixF& in,
                       std::span<const float> gain,
                       std::span<const float> bias,
                       support::MatrixF& out) const
{
    if (config_.uses_rmsnorm()) {
        rmsnorm(in, gain, out);
    } else {
        layernorm(in, gain, bias, out);
    }
}

support::MatrixF
TransformerModel::attention(std::size_t layer_idx,
                            const support::MatrixF& x_norm) const
{
    const LayerWeights& w = layers_[layer_idx];
    const NonlinearHooks& hooks = hooks_for(layer_idx);
    const std::size_t T = x_norm.rows();
    const std::size_t heads = config_.num_heads;
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t group = config_.gqa_group();

    support::MatrixF q = linear(x_norm, w.wq);
    support::MatrixF k = linear(x_norm, w.wk);
    support::MatrixF v = linear(x_norm, w.wv);
    if (config_.uses_rope()) {
        apply_rope(q, heads, hd, 0);
        apply_rope(k, kv_heads, hd, 0);
    }

    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    support::MatrixF out(T, config_.d_model, 0.0f);

    for (std::size_t h = 0; h < heads; ++h) {
        const std::size_t kv_h = h / group;
        // scores[t, s] = q_t . k_s * scale  (+ causal mask).
        support::MatrixF scores(T, T, 0.0f);
        for (std::size_t t = 0; t < T; ++t) {
            const float* qrow = q.row_data(t) + h * hd;
            for (std::size_t s = 0; s < T; ++s) {
                if (config_.causal() && s > t) {
                    scores.at(t, s) = -INFINITY;
                    continue;
                }
                const float* krow = k.row_data(s) + kv_h * hd;
                float dot = 0.0f;
                for (std::size_t i = 0; i < hd; ++i) {
                    dot += qrow[i] * krow[i];
                }
                scores.at(t, s) = dot * scale;
            }
        }
        const auto capture_row = [&](std::span<const float> shifted) {
            if (capture_) {
                capture_(nonlinear::NonlinearOp::kExp, layer_idx,
                         shifted);
            }
        };
        softmax_rows(scores, hooks.softmax_exp,
                     capture_ ? capture_row
                              : std::function<void(
                                    std::span<const float>)>{});
        // out_t += probs . v
        for (std::size_t t = 0; t < T; ++t) {
            float* orow = out.row_data(t) + h * hd;
            for (std::size_t s = 0; s < T; ++s) {
                const float p = scores.at(t, s);
                if (p == 0.0f) continue;
                const float* vrow = v.row_data(s) + kv_h * hd;
                for (std::size_t i = 0; i < hd; ++i) {
                    orow[i] += p * vrow[i];
                }
            }
        }
    }
    return linear(out, w.wo);
}

std::function<void(std::span<const float>)>
TransformerModel::activation_capture(std::size_t layer_idx) const
{
    if (!capture_) {
        return {};
    }
    return [this, layer_idx](std::span<const float> values) {
        capture_(config_.activation(), layer_idx, values);
    };
}

support::MatrixF
TransformerModel::ffn(std::size_t layer_idx,
                      const support::MatrixF& x_norm,
                      const NonlinearHooks& hooks) const
{
    const LayerWeights& w = layers_[layer_idx];
    const auto capture = activation_capture(layer_idx);

    if (config_.gated_ffn()) {
        support::MatrixF gate = linear(x_norm, w.w_gate);
        const support::MatrixF up = linear(x_norm, w.w_up);
        apply_activation(gate, config_.activation(), hooks.activation,
                         capture);
        for (std::size_t i = 0; i < gate.size(); ++i) {
            gate.data()[i] *= up.data()[i];
        }
        return linear(gate, w.w_down);
    }
    support::MatrixF hidden = linear(x_norm, w.w_up);
    apply_activation(hidden, config_.activation(), hooks.activation,
                     capture);
    return linear(hidden, w.w_down);
}

support::MatrixF
TransformerModel::run_layers(support::MatrixF x) const
{
    support::MatrixF x_norm;
    for (std::size_t l = 0; l < layers_.size(); ++l) {
        const LayerWeights& w = layers_[l];
        norm(x, w.norm1_gain, w.norm1_bias, x_norm);
        const support::MatrixF attn = attention(l, x_norm);
        for (std::size_t i = 0; i < x.size(); ++i) {
            x.data()[i] += attn.data()[i];
        }
        norm(x, w.norm2_gain, w.norm2_bias, x_norm);
        const support::MatrixF f = ffn(l, x_norm, hooks_for(l));
        for (std::size_t i = 0; i < x.size(); ++i) {
            x.data()[i] += f.data()[i];
        }
    }
    norm(x, final_norm_gain_, final_norm_bias_, x_norm);
    return linear(x_norm, lm_head_);
}

support::MatrixF
TransformerModel::forward_tokens(std::span<const int> tokens) const
{
    support::MatrixF x(tokens.size(), config_.d_model);
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        const std::span<const float> e = embedding(tokens[t]);
        std::copy(e.begin(), e.end(), x.row_data(t));
    }
    return run_layers(std::move(x));
}

support::MatrixF
TransformerModel::forward_embeddings(
    const support::MatrixF& embeddings) const
{
    assert(embeddings.cols() == config_.d_model);
    return run_layers(embeddings);
}

std::span<const float>
TransformerModel::embedding(int token) const
{
    assert(token >= 0 &&
           static_cast<std::size_t>(token) < config_.vocab);
    return {embedding_.row_data(static_cast<std::size_t>(token)),
            config_.d_model};
}

support::MatrixF
TransformerModel::decode_layer(std::size_t layer_idx,
                               const support::MatrixF& x,
                               quant::KvCache& cache) const
{
    return decode_layer(layer_idx, x, cache, hooks_for(layer_idx));
}

void
TransformerModel::append_kv(const float* k_row, const float* v_row,
                            quant::KvCache& cache) const
{
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    support::MatrixF k_heads(kv_heads, hd);
    support::MatrixF v_heads(kv_heads, hd);
    for (std::size_t h = 0; h < kv_heads; ++h) {
        for (std::size_t i = 0; i < hd; ++i) {
            k_heads.at(h, i) = k_row[h * hd + i];
            v_heads.at(h, i) = v_row[h * hd + i];
        }
    }
    cache.append(k_heads, v_heads);
}

void
TransformerModel::attend_head(const float* q_head,
                              const support::MatrixF& k_scratch,
                              const support::MatrixF& v_scratch,
                              std::size_t positions,
                              const NonlinearHooks& hooks,
                              float* out_head) const
{
    const std::size_t hd = config_.head_dim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    support::MatrixF scores(1, positions, 0.0f);
    for (std::size_t s = 0; s < positions; ++s) {
        const float* krow = k_scratch.row_data(s);
        float dot = 0.0f;
        for (std::size_t i = 0; i < hd; ++i) {
            dot += q_head[i] * krow[i];
        }
        scores.at(0, s) = dot * scale;
    }
    softmax_rows(scores, hooks.softmax_exp);
    for (std::size_t s = 0; s < positions; ++s) {
        const float p = scores.at(0, s);
        if (p == 0.0f) continue;
        const float* vrow = v_scratch.row_data(s);
        for (std::size_t i = 0; i < hd; ++i) {
            out_head[i] += p * vrow[i];
        }
    }
}

void
TransformerModel::attend_one(const float* q_row, const float* k_row,
                             const float* v_row,
                             quant::KvCache& cache,
                             const NonlinearHooks& hooks,
                             float* out_row) const
{
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t group = config_.gqa_group();

    append_kv(k_row, v_row, cache);
    const std::size_t S = cache.length().value();

    // Batched KV gather: decode kv head kv_h's whole resident
    // sequence into contiguous [S, hd] scratch once, and let every
    // query head of its GQA group read it -- one block-table walk per
    // kv head instead of one cache read per (head, position).  The
    // per-vector decode is the arithmetic read_key/read_value ran,
    // and a GQA group's query heads are consecutive, so the
    // kv_h-outer order visits heads in ascending order.
    assert(config_.num_heads == kv_heads * group);
    support::MatrixF k_scratch(S, hd);
    support::MatrixF v_scratch(S, hd);
    for (std::size_t kv_h = 0; kv_h < kv_heads; ++kv_h) {
        cache.read_keys(kv_h, units::Positions(0),
                        units::Positions(S), k_scratch.row_data(0));
        cache.read_values(kv_h, units::Positions(0),
                          units::Positions(S), v_scratch.row_data(0));
        for (std::size_t g = 0; g < group; ++g) {
            const std::size_t h = kv_h * group + g;
            attend_head(q_row + h * hd, k_scratch, v_scratch, S,
                        hooks, out_row + h * hd);
        }
    }
}

void
TransformerModel::attend_run(
    support::MatrixF& q, support::MatrixF& k,
    const support::MatrixF& v, std::size_t begin, std::size_t end,
    quant::KvCache& cache,
    std::span<const NonlinearHooks* const> hooks,
    support::MatrixF& out) const
{
    const std::size_t heads = config_.num_heads;
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t group = config_.gqa_group();
    const std::size_t base = cache.length().value();

    // Row begin + j sits at position base + j: rotate it there and
    // append it, in row order, before any row attends.
    for (std::size_t r = begin; r < end; ++r) {
        if (config_.uses_rope()) {
            const std::size_t pos = base + (r - begin);
            rope_rotate_row(q.row_data(r), heads, hd, pos);
            rope_rotate_row(k.row_data(r), kv_heads, hd, pos);
        }
        append_kv(k.row_data(r), v.row_data(r), cache);
    }
    // One gather per kv head covers the whole run.  KV vectors are
    // quantized per position, so a later row's append never changes
    // the bytes an earlier row reads: attending a prefix of the
    // grown scratch is what attend_one sees after that row's append.
    assert(heads == kv_heads * group);
    const std::size_t S = cache.length().value();
    support::MatrixF k_scratch(S, hd);
    support::MatrixF v_scratch(S, hd);
    for (std::size_t kv_h = 0; kv_h < kv_heads; ++kv_h) {
        cache.read_keys(kv_h, units::Positions(0),
                        units::Positions(S), k_scratch.row_data(0));
        cache.read_values(kv_h, units::Positions(0),
                          units::Positions(S), v_scratch.row_data(0));
        for (std::size_t r = begin; r < end; ++r) {
            const std::size_t positions = base + (r - begin) + 1;
            for (std::size_t g = 0; g < group; ++g) {
                const std::size_t h = kv_h * group + g;
                attend_head(q.row_data(r) + h * hd, k_scratch,
                            v_scratch, positions, *hooks[r],
                            out.row_data(r) + h * hd);
            }
        }
    }
}

support::MatrixF
TransformerModel::decode_layer(std::size_t layer_idx,
                               const support::MatrixF& x,
                               quant::KvCache& cache,
                               const NonlinearHooks& hooks) const
{
    assert(x.rows() == 1);
    const LayerWeights& w = layers_[layer_idx];
    const std::size_t heads = config_.num_heads;
    const std::size_t kv_heads = config_.num_kv_heads;
    const std::size_t hd = config_.head_dim();
    const std::size_t pos = cache.length().value();

    support::MatrixF x_norm;
    norm(x, w.norm1_gain, w.norm1_bias, x_norm);

    support::MatrixF q = linear(x_norm, w.wq);
    support::MatrixF k = linear(x_norm, w.wk);
    support::MatrixF v = linear(x_norm, w.wv);
    if (config_.uses_rope()) {
        apply_rope(q, heads, hd, pos);
        apply_rope(k, kv_heads, hd, pos);
    }
    support::MatrixF attn_out(1, config_.d_model, 0.0f);
    attend_one(q.row_data(0), k.row_data(0), v.row_data(0), cache,
               hooks, attn_out.row_data(0));

    support::MatrixF out = linear(attn_out, w.wo);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += x.data()[i];
    }

    norm(out, w.norm2_gain, w.norm2_bias, x_norm);
    const support::MatrixF f = ffn(layer_idx, x_norm, hooks);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += f.data()[i];
    }
    return out;
}

support::MatrixF
TransformerModel::decode_layer_batch(
    std::size_t layer_idx, const support::MatrixF& x,
    std::span<quant::KvCache* const> caches,
    std::span<const NonlinearHooks* const> hooks,
    support::ThreadPool* pool) const
{
    const std::size_t batch = x.rows();
    assert(caches.size() == batch && hooks.size() == batch);
    const LayerWeights& w = layers_[layer_idx];
    const std::size_t d = config_.d_model;
    // The profiling capture appends every row's nonlinear-input
    // stream to caller state in batch-row order; keep that ordering
    // by running captured layers serially.
    if (capture_) {
        pool = nullptr;
    }
    // Pooled stage helpers.  Every task writes a disjoint row range
    // of a pre-zeroed output and runs the identical per-cell float-op
    // sequence as the serial loop, so the parallel_for join (the
    // stage barrier) reproduces the serial bytes exactly.
    using RangeBody = std::function<void(std::size_t, std::size_t)>;
    const auto for_ranges = [](support::ThreadPool* on,
                               std::size_t count,
                               const RangeBody& body) {
        if (on != nullptr && count > 1) {
            const auto ranges =
                support::split_ranges(count, on->num_threads());
            on->parallel_for(ranges.size(), [&](std::size_t t) {
                body(ranges[t].first, ranges[t].second);
            });
        } else {
            body(0, count);
        }
    };
    const auto gemm = [&](const support::MatrixF& a,
                          const support::MatrixF& b) {
        support::MatrixF c(a.rows(), b.cols(), 0.0f);
        if (pool != nullptr && a.rows() > 1) {
            const auto ranges =
                support::split_ranges(a.rows(), pool->num_threads());
            pool->parallel_for(ranges.size(), [&](std::size_t t) {
                linear_batched_range(a, b, ranges[t].first,
                                     ranges[t].second, c);
            });
        } else {
            linear_batched_range(a, b, 0, a.rows(), c);
        }
        return c;
    };

    support::MatrixF x_norm;
    norm(x, w.norm1_gain, w.norm1_bias, x_norm);

    // One batched [B, d] x [d, out] GEMM per projection covers the
    // whole stack; row r keeps its own q / k / v.  Pooled, the three
    // projections fan out together as (projection x row-range) tasks.
    support::MatrixF q(batch, w.wq.cols(), 0.0f);
    support::MatrixF k(batch, w.wk.cols(), 0.0f);
    support::MatrixF v(batch, w.wv.cols(), 0.0f);
    {
        support::MatrixF* const outs[3] = {&q, &k, &v};
        const support::MatrixF* const weights[3] = {&w.wq, &w.wk,
                                                    &w.wv};
        if (pool != nullptr && batch > 1) {
            const auto ranges =
                support::split_ranges(batch, pool->num_threads());
            pool->parallel_for(3 * ranges.size(), [&](std::size_t t) {
                const auto& range = ranges[t % ranges.size()];
                const std::size_t proj = t / ranges.size();
                linear_batched_range(x_norm, *weights[proj],
                                     range.first, range.second,
                                     *outs[proj]);
            });
        } else {
            for (std::size_t proj = 0; proj < 3; ++proj) {
                linear_batched_range(x_norm, *weights[proj], 0, batch,
                                     *outs[proj]);
            }
        }
    }
    // Causal runs: maximal ranges of consecutive rows on one cache,
    // attended in row order.  Runs fan out across the pool only when
    // every run's cache is distinct, so no two tasks touch one cache.
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (std::size_t r = 0; r < batch; ++r) {
        if (r == 0 || caches[r] != caches[r - 1]) {
            runs.emplace_back(r, r + 1);
        } else {
            runs.back().second = r + 1;
        }
    }
    std::vector<const quant::KvCache*> run_caches;
    run_caches.reserve(runs.size());
    for (const auto& run : runs) {
        run_caches.push_back(caches[run.first]);
    }
    std::sort(run_caches.begin(), run_caches.end());
    const bool distinct_caches =
        std::adjacent_find(run_caches.begin(), run_caches.end()) ==
        run_caches.end();
    support::MatrixF attn_out(batch, d, 0.0f);
    for_ranges(distinct_caches ? pool : nullptr, runs.size(),
               [&](std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                       const auto [first, last] = runs[i];
                       attend_run(q, k, v, first, last,
                                  *caches[first], hooks, attn_out);
                   }
               });
    support::MatrixF out = gemm(attn_out, w.wo);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += x.data()[i];
    }

    norm(out, w.norm2_gain, w.norm2_bias, x_norm);
    // FFN: fused batched projections, per-row activation (each row
    // must feed its own hooks exactly the per-request input stream
    // the sequential path would -- see apply_activation_span).
    const auto capture = activation_capture(layer_idx);
    const std::size_t ff = config_.d_ff;
    support::MatrixF f;
    if (config_.gated_ffn()) {
        support::MatrixF gate = gemm(x_norm, w.w_gate);
        const support::MatrixF up = gemm(x_norm, w.w_up);
        for_ranges(pool, batch, [&](std::size_t begin,
                                    std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                float* grow = gate.row_data(r);
                apply_activation_span(std::span<float>(grow, ff),
                                      config_.activation(),
                                      hooks[r]->activation, capture);
                const float* urow = up.row_data(r);
                for (std::size_t i = 0; i < ff; ++i) {
                    grow[i] *= urow[i];
                }
            }
        });
        f = gemm(gate, w.w_down);
    } else {
        support::MatrixF hidden = gemm(x_norm, w.w_up);
        for_ranges(pool, batch, [&](std::size_t begin,
                                    std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                apply_activation_span(
                    std::span<float>(hidden.row_data(r), ff),
                    config_.activation(), hooks[r]->activation,
                    capture);
            }
        });
        f = gemm(hidden, w.w_down);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        out.data()[i] += f.data()[i];
    }
    return out;
}

DecodeSession::DecodeSession(const TransformerModel& model,
                             quant::KvPrecision kv_precision)
    : model_(model)
{
    const ModelConfig& config = model.config();
    caches_.reserve(config.num_layers);
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        caches_.emplace_back(config.num_kv_heads, config.head_dim(),
                             kv_precision);
    }
}

std::vector<float>
DecodeSession::step(int token)
{
    const ModelConfig& config = model_.config();
    support::MatrixF x(1, config.d_model);
    const std::span<const float> e = model_.embedding(token);
    std::copy(e.begin(), e.end(), x.row_data(0));
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        x = model_.decode_layer(l, x, caches_[l]);
    }
    support::MatrixF x_norm;
    if (config.uses_rmsnorm()) {
        rmsnorm(x, model_.final_norm_gain(), x_norm);
    } else {
        std::vector<float> bias(config.d_model, 0.0f);
        layernorm(x, model_.final_norm_gain(), bias, x_norm);
    }
    const support::MatrixF logits = linear(x_norm, model_.lm_head());
    ++position_;
    return logits.data();
}

std::size_t
DecodeSession::kv_bytes() const
{
    std::size_t total = 0;
    for (const quant::KvCache& cache : caches_) {
        total += cache.memory_bytes().value();
    }
    return total;
}

}  // namespace model
}  // namespace mugi
