#include "serve/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

#include "model/ops.h"
#include "sim/cost_model.h"
#include "vlp/vlp_gemm.h"

namespace mugi {
namespace serve {
namespace {

/** VLP cycle-model charge of one N x K GEMM against B columns. */
vlp::GemmStats
gemm_charge(std::size_t n, std::size_t k, std::size_t b,
            const sim::DesignConfig& design)
{
    vlp::GemmStats stats;
    stats.cycles = vlp::vlp_gemm_mugi_cycles(
        n, b, k, static_cast<int>(design.array_rows),
        static_cast<int>(design.array_cols));
    stats.sweeps =
        stats.cycles >> numerics::kInt4MagnitudeBits;
    stats.subscriptions =
        static_cast<std::uint64_t>(n) * k * b;
    return stats;
}

/**
 * Charge of one forward pass's projection GEMMs (all layers + LM
 * head) over @p rows token rows, each projection run as one GEMM
 * across the rows -- the activations share the array's column tiles,
 * so cycles/sweeps amortize to ceil(rows / W) -- with the LM head
 * applied to @p head_rows of them.  A fused decode batch scores every
 * row; a prefill chunk scores only its last; the sequential decode
 * path pays one single-row pass per token.  Subscriptions (the
 * MAC-equivalent count) depend only on the row counts.
 */
vlp::GemmStats
forward_charge(const model::ModelConfig& config,
               const sim::DesignConfig& design, std::size_t rows,
               std::size_t head_rows)
{
    const std::size_t d = config.d_model;
    const std::size_t kv = config.num_kv_heads * config.head_dim();
    const std::size_t ff = config.d_ff;

    vlp::GemmStats layer;
    layer += gemm_charge(d, d, rows, design);   // wq
    layer += gemm_charge(kv, d, rows, design);  // wk
    layer += gemm_charge(kv, d, rows, design);  // wv
    layer += gemm_charge(d, d, rows, design);   // wo
    if (config.gated_ffn()) {
        layer += gemm_charge(ff, d, rows, design);  // gate
    }
    layer += gemm_charge(ff, d, rows, design);  // up
    layer += gemm_charge(d, ff, rows, design);  // down

    vlp::GemmStats total;
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        total += layer;
    }
    total += gemm_charge(config.vocab, d, head_rows, design);
    return total;
}

}  // namespace

Engine::Engine(const sim::DesignConfig& design)
    : design_(design), registry_(design.array_rows)
{
}

Engine::Engine(const sim::DesignConfig& design,
               const model::ModelConfig& model)
    : design_(design), model_config_(model),
      registry_(design.array_rows)
{
}

Engine::Engine(const sim::DesignConfig& design,
               std::shared_ptr<const model::TransformerModel> model)
    : design_(design), model_config_(model->config()),
      model_(std::move(model)), registry_(design.array_rows)
{
}

std::unique_ptr<Engine>
Engine::default_mugi()
{
    return std::make_unique<Engine>(sim::make_mugi(256));
}

model::NonlinearHooks
Engine::default_hooks() const
{
    model::NonlinearHooks hooks;
    hooks.softmax_exp =
        registry_.get_default(nonlinear::NonlinearOp::kExp).get();
    const nonlinear::NonlinearOp act =
        model_config_ ? model_config_->activation()
                      : nonlinear::NonlinearOp::kSilu;
    hooks.activation = registry_.get_default(act).get();
    return hooks;
}

Session
Engine::create_session(const SessionOptions& options) const
{
    assert(model_config_.has_value() &&
           "session serving needs a model (config) at engine build");
    assert((!model_ || options.initial_context.value() == 0) &&
           "functional sessions build context by prefilling tokens");
    const std::size_t layers = model_config_->num_layers;
    // Relaxed is sufficient (and deliberate): the counter only has to
    // hand every concurrent create_session a distinct id, which the
    // RMW's atomicity alone guarantees.  No other memory is published
    // through it, so no acquire/release ordering is required.
    Session session(
        next_session_id_.fetch_add(1, std::memory_order_relaxed),
        options.kv_precision, options.initial_context.value(),
        layers);
    if (model_) {
        session.caches_.reserve(layers);
        for (std::size_t l = 0; l < layers; ++l) {
            session.caches_.emplace_back(model_config_->num_kv_heads,
                                         model_config_->head_dim(),
                                         options.kv_precision,
                                         options.kv_pool);
        }
    }
    // Retain the default kernels so the session stays valid even if
    // it outlives this engine (sessions are movable value types).
    const auto exp_kernel =
        registry_.get_default(nonlinear::NonlinearOp::kExp);
    const auto act_kernel =
        registry_.get_default(model_config_->activation());
    model::NonlinearHooks hooks;
    hooks.softmax_exp = exp_kernel.get();
    hooks.activation = act_kernel.get();
    session.set_hooks(hooks);
    session.retain_kernel(exp_kernel);
    session.retain_kernel(act_kernel);
    return session;
}

support::MatrixF
Engine::final_norm_logits(const support::MatrixF& x,
                          support::ThreadPool* pool) const
{
    const model::ModelConfig& config = *model_config_;
    support::MatrixF x_norm;
    if (config.uses_rmsnorm()) {
        model::rmsnorm(x, model_->final_norm_gain(), x_norm);
    } else {
        std::vector<float> bias(config.d_model, 0.0f);
        model::layernorm(x, model_->final_norm_gain(), bias, x_norm);
    }
    // One GEMM over the whole stack.  Pooled, the stack's rows split
    // into disjoint ranges with the identical per-cell accumulation
    // (linear_batched_range), so the bytes match the serial GEMM.
    const support::MatrixF& lm_head = model_->lm_head();
    support::MatrixF logits(x_norm.rows(), lm_head.cols(), 0.0f);
    if (pool != nullptr && x_norm.rows() > 1) {
        const auto ranges =
            support::split_ranges(x_norm.rows(), pool->num_threads());
        pool->parallel_for(ranges.size(), [&](std::size_t t) {
            model::linear_batched_range(x_norm, lm_head,
                                        ranges[t].first,
                                        ranges[t].second, logits);
        });
    } else {
        model::linear_batched_range(x_norm, lm_head, 0, x_norm.rows(),
                                    logits);
    }
    return logits;
}

std::vector<float>
Engine::decode_token(Session& session, int token) const
{
    assert(model_ && "functional decode needs a loaded model");
    const model::ModelConfig& config = *model_config_;
    support::MatrixF x(1, config.d_model);
    const std::span<const float> e = model_->embedding(token);
    std::copy(e.begin(), e.end(), x.row_data(0));
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        x = model_->decode_layer(l, x, session.caches_[l],
                                 session.hooks_for(l));
    }
    return final_norm_logits(x).data();
}

support::MatrixF
Engine::forward_rows(std::span<Session* const> sessions,
                     std::span<const int> tokens,
                     support::ThreadPool* pool) const
{
    assert(model_);
    assert(sessions.size() == tokens.size());
    const model::ModelConfig& config = *model_config_;
    const std::size_t rows = tokens.size();

    // Stack the rows' token embeddings into one activation matrix.
    support::MatrixF x(rows, config.d_model);
    for (std::size_t i = 0; i < rows; ++i) {
        const std::span<const float> e = model_->embedding(tokens[i]);
        std::copy(e.begin(), e.end(), x.row_data(i));
    }
    std::vector<quant::KvCache*> caches(rows);
    std::vector<const model::NonlinearHooks*> hooks(rows);
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        for (std::size_t i = 0; i < rows; ++i) {
            caches[i] = &sessions[i]->caches_[l];
            hooks[i] = &sessions[i]->hooks_for(l);
        }
        x = model_->decode_layer_batch(l, x, caches, hooks, pool);
    }
    return x;
}

void
Engine::step_decode_fused(const StepPlan& plan, StepResult& result,
                          support::ThreadPool* pool) const
{
    const std::size_t batch = plan.decode_sessions.size();
    const support::MatrixF logits = final_norm_logits(
        forward_rows(plan.decode_sessions, plan.decode_tokens, pool),
        pool);

    for (std::size_t i = 0; i < batch; ++i) {
        Session& session = *plan.decode_sessions[i];
        StepResult::SessionOutput out;
        out.session_id = session.id();
        const float* row = logits.row_data(i);
        out.logits.assign(row, row + logits.cols());
        out.next_token = static_cast<int>(std::distance(
            out.logits.begin(),
            std::max_element(out.logits.begin(), out.logits.end())));
        session.position_ += 1;
        session.tokens_generated_ += 1;
        out.position = units::Positions(session.position_);
        result.outputs.push_back(std::move(out));
    }
}

StepResult
Engine::step(std::span<Session* const> sessions,
             std::span<const int> tokens) const
{
    assert(tokens.empty() || tokens.size() == sessions.size());
    StepPlan plan;
    plan.decode_sessions.assign(sessions.begin(), sessions.end());
    plan.decode_tokens.assign(tokens.begin(), tokens.end());
    return step(plan);
}

StepResult
Engine::step(const StepPlan& plan) const
{
    assert(model_config_.has_value());
    assert(plan.decode_tokens.empty() ||
           plan.decode_tokens.size() == plan.decode_sessions.size());
    assert((plan.decode_tokens.empty() || model_) &&
           "token stepping needs a functional model");
    if (plan.empty()) {
        // A drained continuous batch: nothing ran, so return a zeroed
        // report instead of evaluating a 0-token workload (whose
        // derived rates would be NaN and poison accumulators).
        StepResult result;
        result.report.area = sim::node_area(design_);
        return result;
    }

    // Context each session's new token attends: its cache after the
    // append, i.e. position + 1 (matches build_decode_workload's
    // kv_len semantics).  A session listed twice steps twice, so its
    // second occurrence attends one more position.
    const std::size_t D = plan.decode_sessions.size();
    std::vector<std::size_t> contexts;
    contexts.reserve(D);
    std::unordered_map<const Session*, std::size_t> occurrences;
    for (std::size_t i = 0; i < D; ++i) {
        const Session* session = plan.decode_sessions[i];
        const std::size_t seen = occurrences[session]++;
        contexts.push_back(session->position().value() + 1 + seen);
    }
    std::vector<model::PrefillChunk> chunks;
    chunks.reserve(plan.prefills.size());
    for (const StepPlan::PrefillEntry& entry : plan.prefills) {
        chunks.push_back({entry.session->position().value(),
                          entry.size().value()});
    }
    const model::Workload workload = model::build_mixed_step_workload(
        *model_config_, contexts, chunks);

    StepResult result;
    result.report = evaluate(workload);
    result.outputs.reserve(D);
    const bool functional_decode = !plan.decode_tokens.empty();

    // Pooled execution: hold the shared worker pool for the whole
    // functional region and meter its busy/task counters around it.
    // The pool only decides *when* disjoint-output tasks run, never
    // what they compute, so every pooled path below is bit-identical
    // to plan.threads == 0.
    std::shared_ptr<support::ThreadPool> pool;
    if (plan.threads > 0 && model_ != nullptr) {
        pool = worker_pool(plan.threads);
    }
    const auto wall_start = std::chrono::steady_clock::now();
    const std::uint64_t busy_start = pool ? pool->busy_ns() : 0;
    const std::uint64_t tasks_start =
        pool ? pool->tasks_completed() : 0;

    // Fused batched decode: one projection GEMM per layer over the
    // stacked batch, bit-identical to per-session stepping.  A
    // session listed twice is two rows of one cache, which
    // decode_layer_batch attends in row order, so its second token
    // sees the first.  fused_decode = false keeps the token-at-a-time
    // path as the sequential oracle.
    if (functional_decode && plan.fused_decode) {
        step_decode_fused(plan, result, pool.get());
        result.gemm += forward_charge(*model_config_, design_, D, D);
    } else {
        for (std::size_t i = 0; i < D; ++i) {
            Session& session = *plan.decode_sessions[i];
            StepResult::SessionOutput out;
            out.session_id = session.id();
            if (functional_decode) {
                out.logits =
                    decode_token(session, plan.decode_tokens[i]);
                out.next_token = static_cast<int>(std::distance(
                    out.logits.begin(),
                    std::max_element(out.logits.begin(),
                                     out.logits.end())));
            }
            session.position_ += 1;
            session.tokens_generated_ += 1;
            out.position = units::Positions(session.position_);
            result.outputs.push_back(std::move(out));
        }
        if (functional_decode) {
            for (std::size_t i = 0; i < D; ++i) {
                result.gemm +=
                    forward_charge(*model_config_, design_, 1, 1);
            }
        }
    }
    const std::size_t P = plan.prefills.size();
    result.prefill_outputs.reserve(P);
    // Per-chunk prefill tasks: each chunk streams its own session's
    // tokens, so chunks over pairwise-distinct sessions that also
    // don't appear among the decode entries are independent and fan
    // out across the pool (outputs and charges are still assembled in
    // plan order below, and each chunk runs the identical serial
    // batched pass -- bit-identical to the serial plan walk).
    bool parallel_prefill = pool != nullptr && P > 1;
    if (parallel_prefill) {
        std::unordered_map<const Session*, std::size_t> prefill_seen;
        for (const StepPlan::PrefillEntry& entry : plan.prefills) {
            parallel_prefill &= !entry.tokens.empty();
            parallel_prefill &= prefill_seen[entry.session]++ == 0;
            parallel_prefill &=
                occurrences.find(entry.session) == occurrences.end();
        }
    }
    std::vector<std::vector<float>> chunk_logits(P);
    if (parallel_prefill) {
        pool->parallel_for(P, [&](std::size_t i) {
            const StepPlan::PrefillEntry& entry = plan.prefills[i];
            chunk_logits[i] =
                prefill_chunk(*entry.session, entry.tokens);
        });
    }
    for (std::size_t i = 0; i < P; ++i) {
        const StepPlan::PrefillEntry& entry = plan.prefills[i];
        Session& session = *entry.session;
        StepResult::SessionOutput out;
        out.session_id = session.id();
        if (!entry.tokens.empty()) {
            out.logits = parallel_prefill
                             ? std::move(chunk_logits[i])
                             : prefill_chunk(session, entry.tokens);
            out.next_token = static_cast<int>(std::distance(
                out.logits.begin(),
                std::max_element(out.logits.begin(),
                                 out.logits.end())));
            // One fused GEMM per projection over the chunk; the LM
            // head scores only its last row.
            result.gemm += forward_charge(*model_config_, design_,
                                          entry.tokens.size(), 1);
        } else {
            advance_context(session, entry.analytic_tokens);
        }
        out.position = units::Positions(session.position_);
        result.prefill_outputs.push_back(std::move(out));
    }

    if (pool) {
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        const double busy_s =
            static_cast<double>(pool->busy_ns() - busy_start) * 1e-9;
        result.workers.threads = pool->num_threads();
        result.workers.tasks = pool->tasks_completed() - tasks_start;
        if (wall_s > 0.0) {
            result.workers.busy_fraction = std::min(
                1.0, busy_s / (static_cast<double>(
                                   pool->num_threads()) *
                               wall_s));
        }
        result.workers.idle_fraction =
            1.0 - result.workers.busy_fraction;
    }
    return result;
}

std::shared_ptr<support::ThreadPool>
Engine::worker_pool(std::size_t threads) const
{
    support::MutexLock lock(pool_mutex_);
    if (!pool_ || pool_->num_threads() != threads) {
        pool_ = std::make_shared<support::ThreadPool>(threads);
    }
    return pool_;
}

StepResult
Engine::step(Session& session, int token) const
{
    Session* batch[1] = {&session};
    return step(std::span<Session* const>(batch),
                std::span<const int>(&token, 1));
}

std::vector<float>
Engine::prefill(Session& session, std::span<const int> prompt) const
{
    return prefill_chunk(session, prompt);
}

std::vector<float>
Engine::prefill_chunk(Session& session,
                      std::span<const int> tokens) const
{
    assert(model_ && "chunked prefill needs a functional model");
    const std::size_t T = tokens.size();
    if (T == 0) {
        return {};
    }
    // Every row names this session: the chunk is one causal run,
    // appended in row order and attended with one KV gather per head
    // and layer.
    const std::vector<Session*> rows(T, &session);
    const support::MatrixF x = forward_rows(rows, tokens, nullptr);
    session.position_ += T;
    // Only the last row's logits leave the chunk.
    const std::size_t d = model_config_->d_model;
    support::MatrixF last(1, d);
    std::copy(x.row_data(T - 1), x.row_data(T - 1) + d,
              last.row_data(0));
    return final_norm_logits(last).data();
}

void
Engine::advance_context(Session& session, units::Tokens tokens) const
{
    assert(!model_ &&
           "functional sessions build context by prefilling tokens");
    session.position_ += tokens.value();
}

SystemReport
Engine::evaluate(const model::Workload& workload) const
{
    SystemReport report;
    report.perf = sim::run_workload(design_, workload);
    report.area = sim::node_area(design_);
    report.carbon = carbon::assess(design_, report.perf);
    report.event_sim = sim::simulate(design_, workload);
    return report;
}

SystemReport
Engine::evaluate_decode(const model::ModelConfig& model,
                        std::size_t batch, std::size_t context) const
{
    return evaluate(
        model::build_decode_workload(model, batch, context));
}

SystemReport
Engine::evaluate_prefill(const model::ModelConfig& model,
                         std::size_t batch, std::size_t seq_len) const
{
    return evaluate(
        model::build_prefill_workload(model, batch, seq_len));
}

sim::PerfReport
Engine::perf(const model::Workload& workload) const
{
    return sim::run_workload(design_, workload);
}

sim::NonlinearPerf
Engine::evaluate_nonlinear(const model::NonlinearWork& work) const
{
    return sim::run_nonlinear_only(design_, work);
}

sim::OpCost
Engine::gemm_cost(const model::GemmOp& op) const
{
    return sim::gemm_cost(design_, op);
}

sim::OpCost
Engine::nonlinear_cost(const model::NonlinearWork& work) const
{
    return sim::nonlinear_cost(design_, work);
}

sim::AreaBreakdown
Engine::area() const
{
    return sim::node_area(design_);
}

PreparedWeights
Engine::prepare_weights(const support::MatrixF& weights,
                        std::size_t group_size) const
{
    return PreparedWeights(weights, group_size);
}

GemmRun
Engine::run_woq_gemm(const PreparedWeights& weights,
                     const support::MatrixF& activations) const
{
    return run_prepared_gemm(weights, activations, design_.array_rows,
                             design_.array_cols);
}

GemmRun
Engine::run_woq_gemm(const support::MatrixF& weights,
                     const support::MatrixF& activations,
                     std::size_t group_size) const
{
    return run_woq_gemm(prepare_weights(weights, group_size),
                        activations);
}

std::vector<float>
Engine::run_softmax(std::span<const float> logits) const
{
    const auto exp_kernel =
        registry_.get_default(nonlinear::NonlinearOp::kExp);
    std::vector<float> out(logits.size());
    nonlinear::softmax_with(*exp_kernel, logits, out);
    return out;
}

std::vector<float>
Engine::run_activation(nonlinear::NonlinearOp op,
                       std::span<const float> values) const
{
    assert(op != nonlinear::NonlinearOp::kExp);
    const auto kernel = registry_.get_default(op);
    std::vector<float> out(values.size());
    kernel->apply_batch(values, out);
    return out;
}

}  // namespace serve
}  // namespace mugi
