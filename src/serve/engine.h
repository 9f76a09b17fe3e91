#ifndef MUGI_SERVE_ENGINE_H_
#define MUGI_SERVE_ENGINE_H_

/**
 * @file
 * The serving-oriented Mugi API.
 *
 * The Engine is the immutable half of the request/engine split
 * production LLM servers use: it owns the accelerator design
 * (sim/design.h), a KernelRegistry of lazily-built shared VLP
 * kernels, optionally a functional transformer whose weights are
 * fixed at load time, and PreparedWeights handles that run INT4
 * group quantization exactly once.  Everything mutable belongs to a
 * Session (serve/session.h).
 *
 * Engine::step is the continuous-batching primitive: one call takes
 * a batch of heterogeneous sessions (different context lengths, KV
 * precisions, per-layer window tunings), builds a single mixed
 * Workload, runs the performance / cost / carbon / event-sim models
 * once, and -- when a functional model is loaded -- produces each
 * session's next-token logits through exactly the same numerical
 * path a standalone decode would take, so batched serving reproduces
 * single-request numerics bit-for-bit.
 *
 * Thread-safety: every member function is const and safe to call
 * concurrently, provided no Session appears in two concurrent step()
 * batches (sessions are single-request streams).  The engine's
 * mutable state is the relaxed-atomic session-id counter, the
 * internally-synchronized KernelRegistry, and the lazily-built
 * worker pool behind pool_mutex_ (a support::ThreadPool shared
 * across steps; step() holds a shared_ptr for its duration, so a
 * concurrent step that swaps the pool for a different thread count
 * never destroys one in use); everything else is immutable after
 * construction.
 * tests/concurrency/engine_step_stress_test.cc drives N threads of
 * step() over disjoint sessions through one engine under TSan, and
 * the registry/pool lock discipline is capability-checked by
 * -Wthread-safety (support/thread_annotations.h).
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "carbon/carbon_model.h"
#include "model/transformer.h"
#include "model/workload.h"
#include "serve/kernel_registry.h"
#include "serve/prepared_weights.h"
#include "serve/session.h"
#include "sim/event_sim.h"
#include "sim/performance_model.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"
#include "support/thread_pool.h"

namespace mugi {
namespace serve {

/** Combined evaluation of one workload (or batched step). */
struct SystemReport {
    sim::PerfReport perf;
    sim::AreaBreakdown area;
    carbon::CarbonReport carbon;
    sim::EventSimResult event_sim;
};

/** What one batched Engine::step produced. */
struct StepResult {
    struct SessionOutput {
        units::SessionId session_id{0};
        /** Context length after the step. */
        units::Positions position{0};
        /** Next-token logits (empty for analytic-only engines). */
        std::vector<float> logits;
        /** Greedy next token (-1 for analytic-only engines). */
        int next_token = -1;
    };
    /** One entry per stepped session, in batch order. */
    std::vector<SessionOutput> outputs;
    /**
     * One entry per StepPlan prefill chunk, in plan order.  logits /
     * next_token are those after the chunk's last token, so a chunk
     * that completes a prompt already carries the request's first
     * generated token.
     */
    std::vector<SessionOutput> prefill_outputs;
    /** Aggregated evaluation of the whole batched step. */
    SystemReport report;
    /**
     * Simulated Mugi-array charge of this step's *functional*
     * projection GEMMs, per the VLP cycle model
     * (vlp::vlp_gemm_mugi_cycles): QKV / output / FFN for every
     * decoded or prefilled token, and the LM head for every decoded
     * token and each prefill chunk's last token.  The fused batched
     * decode path and every prefill chunk run each projection as one
     * GEMM over their rows, so column tiles -- and therefore cycles
     * and sweeps -- amortize across the rows (ceil(B/W) instead of B
     * tiles), while subscriptions (the MAC-equivalent count) are
     * identical to a token-at-a-time charge of the same GEMMs.  Zero
     * for analytic-only steps.
     */
    vlp::GemmStats gemm;

    /** Worker-pool utilization of one pooled step. */
    struct WorkerStats {
        /** Worker threads the step ran on (0 = serial step). */
        std::size_t threads = 0;
        /** Pool tasks the step executed. */
        std::uint64_t tasks = 0;
        /**
         * Fraction of the workers' capacity (threads x wall time of
         * the step) spent executing tasks; the remainder is
         * idle_fraction -- joins at stage barriers, queue waits, and
         * the step's serial stages.  Approximate when concurrent
         * steps share the pool.
         */
        double busy_fraction = 0.0;
        double idle_fraction = 0.0;
    };
    /** Zeroed unless the step ran with StepPlan::threads > 0. */
    WorkerStats workers;
};

/**
 * One continuous-batching iteration's worth of work: decode steps
 * and chunked-prefill chunks that share a single mixed workload
 * evaluation (one WOQ weight stream for everything -- see
 * model::build_mixed_step_workload).  This is what serve::Scheduler
 * hands Engine::step each iteration.
 */
struct StepPlan {
    /** Sessions taking one decode step. */
    std::vector<Session*> decode_sessions;
    /**
     * Token each decode session consumes; empty for analytic-only
     * stepping, otherwise one per decode session.
     */
    std::vector<int> decode_tokens;

    struct PrefillEntry {
        Session* session = nullptr;
        /** Prompt chunk to feed (functional engines). */
        std::span<const int> tokens;
        /** Chunk length for analytic engines (tokens empty). */
        units::Tokens analytic_tokens{0};

        units::Tokens
        size() const
        {
            return tokens.empty() ? analytic_tokens
                                  : units::Tokens(tokens.size());
        }
    };
    /** Prefill chunks interleaved into this step. */
    std::vector<PrefillEntry> prefills;

    /**
     * Run the batch's functional decode through the fused path: the
     * batch's embeddings stack into one [batch, d_model] activation
     * matrix and each layer's QKV / output / FFN projections run as
     * one batched GEMM (model::TransformerModel::decode_layer_batch),
     * with per-session attention over each session's own KV cache.
     * A session listed twice is two rows of its cache, attended in
     * batch order, so occurrences still behave as sequential steps.
     * Bit-identical to the sequential path; StepResult::gemm charges
     * the amortized fused cycle counts.  false runs each token
     * through its own single-row layer pass -- the sequential oracle
     * the fused path is tested against.  Prefill always runs fused.
     */
    bool fused_decode = true;

    /**
     * Worker threads to fan the step's functional work across
     * (0 = serial, the pinned fallback).  Pooled execution
     * partitions fused decode into per-projection row-range tasks
     * (attention splits by session only when no session repeats),
     * and prefill into per-chunk tasks when the chunks' sessions are
     * distinct from each other and from the decode set -- otherwise
     * the chunks run serially, without the pool.  Joins sit
     * at the existing layer barriers; every partition writes
     * disjoint outputs and runs the identical float-op sequence, so
     * results are bit-identical to threads == 0 (pinned by
     * tests/concurrency/pooled_step_test.cc).  Analytic engines
     * ignore this field.
     */
    std::size_t threads = 0;

    bool
    empty() const
    {
        return decode_sessions.empty() && prefills.empty();
    }
};

/** An immutable, shareable Mugi serving engine. */
class Engine {
  public:
    /** Kernels + workload evaluation only (no sessions). */
    explicit Engine(const sim::DesignConfig& design);

    /** + analytic sessions serving @p model-shaped requests. */
    Engine(const sim::DesignConfig& design,
           const model::ModelConfig& model);

    /** + functional sessions decoding through @p model's weights. */
    Engine(const sim::DesignConfig& design,
           std::shared_ptr<const model::TransformerModel> model);

    /** Paper-default Mugi node: H=256, window 8, coverage policy. */
    static std::unique_ptr<Engine> default_mugi();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    const sim::DesignConfig& design() const { return design_; }
    const KernelRegistry& kernels() const { return registry_; }
    bool has_model() const { return model_ != nullptr; }
    /** Set iff constructed with a model config or a model. */
    const std::optional<model::ModelConfig>&
    model_config() const
    {
        return model_config_;
    }

    // ---- Request lifecycle. ----

    /**
     * Admit a new request.  Sessions start with the engine-default
     * VLP kernels (registry-built, shared) and may retune per layer.
     */
    Session create_session(const SessionOptions& options = {}) const;

    /**
     * Run one decode step over a batch of sessions.  @p tokens[i] is
     * the token session i consumes; pass an empty span for
     * analytic-only stepping (positions still advance).  Sessions
     * may have arbitrary, heterogeneous context lengths.
     */
    StepResult step(std::span<Session* const> sessions,
                    std::span<const int> tokens = {}) const;

    /** Single-session convenience wrapper over the batched step. */
    StepResult step(Session& session, int token) const;

    /**
     * One mixed serving iteration: every decode step and prefill
     * chunk in @p plan shares a single build_mixed_step_workload
     * evaluation, and functional decode/prefill runs the exact
     * single-request numerical path.  A session may appear more than
     * once among the decode entries; occurrences behave as that many
     * sequential steps (positions and modeled contexts advance per
     * occurrence).
     */
    StepResult step(const StepPlan& plan) const;

    /**
     * Feed a whole prompt through a functional session as one
     * prefill_chunk, without per-step reports; returns the logits
     * after the last prompt token.
     */
    std::vector<float> prefill(Session& session,
                               std::span<const int> prompt) const;

    /**
     * Chunk-bounded prefill entry point (functional engines): feed
     * one chunk of a prompt and return the logits after its last
     * token.  The chunk runs as one batched pass: its tokens are the
     * rows of one causal run through decode_layer_batch (one GEMM
     * per projection, one KV gather per head and layer), and the LM
     * head scores only the last row.  Each row is bit-identical to
     * feeding its token alone, so feeding a prompt chunk by chunk is
     * bit-identical to one prefill() call -- the invariant that lets
     * serve::Scheduler interleave prefill chunks with decode
     * batches.
     */
    std::vector<float> prefill_chunk(Session& session,
                                     std::span<const int> tokens)
        const;

    /**
     * Analytic counterpart of prefill_chunk: grow an analytic
     * session's modeled context by @p tokens positions (no functional
     * model required).
     */
    void advance_context(Session& session,
                         units::Tokens tokens) const;

    // ---- Workload evaluation (the architecture-model facade). ----

    SystemReport evaluate(const model::Workload& workload) const;
    SystemReport evaluate_decode(const model::ModelConfig& model,
                                 std::size_t batch,
                                 std::size_t context) const;
    SystemReport evaluate_prefill(const model::ModelConfig& model,
                                  std::size_t batch,
                                  std::size_t seq_len) const;

    /** Performance model only (cheap; for sweeps). */
    sim::PerfReport perf(const model::Workload& workload) const;

    /** Nonlinear-only throughput study (Fig. 11). */
    sim::NonlinearPerf
    evaluate_nonlinear(const model::NonlinearWork& work) const;

    /** Per-op costs (Fig. 12-style class breakdowns). */
    sim::OpCost gemm_cost(const model::GemmOp& op) const;
    sim::OpCost
    nonlinear_cost(const model::NonlinearWork& work) const;

    sim::AreaBreakdown area() const;

    // ---- Functional kernels. ----

    /** Quantize @p weights once; reuse the handle across requests. */
    PreparedWeights prepare_weights(const support::MatrixF& weights,
                                    std::size_t group_size) const;

    /** WOQ GEMM against a prepared handle (no re-quantization). */
    GemmRun run_woq_gemm(const PreparedWeights& weights,
                         const support::MatrixF& activations) const;

    /** One-shot convenience: prepare + run (bit-identical). */
    GemmRun run_woq_gemm(const support::MatrixF& weights,
                         const support::MatrixF& activations,
                         std::size_t group_size) const;

    /** Functional VLP softmax over @p logits (one row). */
    std::vector<float>
    run_softmax(std::span<const float> logits) const;

    /** Functional VLP activation (SiLU or GELU) over @p values. */
    std::vector<float> run_activation(nonlinear::NonlinearOp op,
                                      std::span<const float> values)
        const;

    /**
     * The engine-default nonlinear kernels (VLP softmax-exp plus the
     * model's FFN activation).  Pointers remain valid for the
     * engine's lifetime.
     */
    model::NonlinearHooks default_hooks() const;

  private:
    /** One token through single-row layers: the sequential oracle
        fused_decode = false runs. */
    std::vector<float> decode_token(Session& session,
                                    int token) const;
    /**
     * Run token row i of @p tokens through every layer against
     * @p sessions[i]'s caches and hooks (decode_layer_batch); returns
     * the final hidden rows, before the final norm.  Rows naming one
     * session consecutively form a causal run.
     */
    support::MatrixF forward_rows(std::span<Session* const> sessions,
                                  std::span<const int> tokens,
                                  support::ThreadPool* pool) const;
    /** Fused batched decode of @p plan's decode sessions. */
    void step_decode_fused(const StepPlan& plan, StepResult& result,
                           support::ThreadPool* pool) const;
    support::MatrixF final_norm_logits(const support::MatrixF& x,
                                       support::ThreadPool* pool =
                                           nullptr) const;
    /**
     * The shared worker pool sized to @p threads, built lazily and
     * rebuilt when a plan asks for a different size.  Callers hold
     * the returned shared_ptr for the duration of their step, so a
     * rebuild never destroys a pool that still has work in flight.
     */
    std::shared_ptr<support::ThreadPool>
    worker_pool(std::size_t threads) const;

    sim::DesignConfig design_;
    std::optional<model::ModelConfig> model_config_;
    std::shared_ptr<const model::TransformerModel> model_;
    KernelRegistry registry_;
    mutable support::Mutex pool_mutex_;
    mutable std::shared_ptr<support::ThreadPool> pool_
        MUGI_GUARDED_BY(pool_mutex_);
    /**
     * Session-id source; the engine's only mutable state.  Bumped
     * with a relaxed fetch_add: uniqueness needs only RMW atomicity,
     * and nothing is published through the counter (see
     * create_session).
     */
    mutable std::atomic<std::uint64_t> next_session_id_{1};
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_ENGINE_H_
