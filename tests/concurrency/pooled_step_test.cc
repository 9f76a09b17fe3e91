/**
 * @file
 * Bit-identity of the pooled Engine::step (StepPlan::threads > 0)
 * against the pinned serial fallback (threads == 0): mixed
 * prefill-and-decode plans, mixed KV precisions (INT4 + float),
 * ragged contexts, fused and sequential decode, 16-token prefill
 * chunks and decode batches listing one session more than once,
 * across 1/2/4-worker pools -- every logit and token must match the
 * serial run exactly, since pooled partitioning only reorders *when*
 * disjoint outputs are computed, never what is computed
 * (thread_pool.h's determinism contract).  Run under TSan in CI: the
 * per-projection row-range tasks, per-chunk prefill tasks and the
 * shared worker pool are exactly the interleavings the sanitizer
 * should see.
 */

#include "serve/engine.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "quant/block_allocator.h"

namespace mugi {
namespace serve {
namespace {

struct PlanOutputs {
    std::vector<std::vector<float>> logits;  ///< Decode then prefill.
    std::vector<int> tokens;
};

/**
 * Run @p steps mixed iterations at @p threads: 4 decode lanes with
 * alternating KV precision and ragged prompts, plus 2 prefill chunks
 * per iteration feeding two more sessions chunk by chunk.
 */
PlanOutputs
run_mixed(const Engine& engine, const model::ModelConfig& config,
          std::size_t threads, std::size_t steps,
          quant::BlockPool* pool)
{
    constexpr std::size_t kDecode = 4;
    std::vector<Session> decoders;
    std::vector<int> feed(kDecode);
    for (std::size_t i = 0; i < kDecode; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i % 2 == 0
                                   ? quant::KvPrecision::kInt4
                                   : quant::KvPrecision::kFloat;
        decoders.push_back(engine.create_session(options));
        engine.prefill(decoders.back(),
                       model::synthetic_tokens(
                           3 + 2 * i, config.vocab,
                           static_cast<std::uint32_t>(50 + i)));
        feed[i] = static_cast<int>(i + 1);
    }

    // Two prefill sessions fed one chunk per iteration.
    constexpr std::size_t kPrefill = 2;
    std::vector<Session> prefillers;
    std::vector<std::vector<int>> prompts;
    std::vector<std::size_t> fed(kPrefill, 0);
    for (std::size_t i = 0; i < kPrefill; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i % 2 == 0
                                   ? quant::KvPrecision::kFloat
                                   : quant::KvPrecision::kInt4;
        prefillers.push_back(engine.create_session(options));
        prompts.push_back(model::synthetic_tokens(
            static_cast<std::size_t>(4 * steps),  // Chunks of 4.
            config.vocab, static_cast<std::uint32_t>(80 + i)));
    }

    PlanOutputs out;
    for (std::size_t step = 0; step < steps; ++step) {
        StepPlan plan;
        plan.threads = threads;
        // Alternate fused and sequential decode so both paths see
        // the pool.
        plan.fused_decode = step % 2 == 0;
        for (std::size_t i = 0; i < kDecode; ++i) {
            plan.decode_sessions.push_back(&decoders[i]);
            plan.decode_tokens.push_back(feed[i]);
        }
        for (std::size_t i = 0; i < kPrefill; ++i) {
            StepPlan::PrefillEntry entry;
            entry.session = &prefillers[i];
            entry.tokens =
                std::span<const int>(prompts[i]).subspan(fed[i], 4);
            plan.prefills.push_back(entry);
            fed[i] += 4;
        }
        const StepResult r = engine.step(plan);
        for (std::size_t i = 0; i < kDecode; ++i) {
            feed[i] = r.outputs[i].next_token;
            out.tokens.push_back(r.outputs[i].next_token);
            out.logits.push_back(r.outputs[i].logits);
        }
        for (const StepResult::SessionOutput& o : r.prefill_outputs) {
            out.tokens.push_back(o.next_token);
            out.logits.push_back(o.logits);
        }
    }
    return out;
}

/** Every logit of @p pooled equals @p serial's, bit for bit. */
void
expect_bit_identical(const PlanOutputs& pooled,
                     const PlanOutputs& serial, std::size_t threads)
{
    EXPECT_EQ(pooled.tokens, serial.tokens) << threads << " threads";
    ASSERT_EQ(pooled.logits.size(), serial.logits.size());
    for (std::size_t i = 0; i < serial.logits.size(); ++i) {
        ASSERT_EQ(pooled.logits[i].size(), serial.logits[i].size());
        for (std::size_t v = 0; v < serial.logits[i].size(); ++v) {
            ASSERT_EQ(pooled.logits[i][v], serial.logits[i][v])
                << threads << " threads, output " << i << ", vocab "
                << v;
        }
    }
}

TEST(PooledStep, MixedPlanBitIdenticalToSerialAcrossThreadCounts)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 321);
    const Engine engine(sim::make_mugi(64), transformer);

    constexpr std::size_t kSteps = 4;
    quant::BlockPool serial_pool;
    const PlanOutputs serial =
        run_mixed(engine, config, 0, kSteps, &serial_pool);
    ASSERT_FALSE(serial.tokens.empty());

    for (const std::size_t threads : {1u, 2u, 4u}) {
        quant::BlockPool pool;
        // Bit-identical: pooled partitioning must never change a
        // single float.
        expect_bit_identical(
            run_mixed(engine, config, threads, kSteps, &pool), serial,
            threads);
        EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
        EXPECT_EQ(pool.check_invariants(), "");
    }
    EXPECT_EQ(serial_pool.blocks_in_use(), units::Blocks(0));
    EXPECT_EQ(serial_pool.check_invariants(), "");
}

/**
 * Causal runs under the pool: each iteration decodes a batch that
 * lists session 0 three times (rows 0, 2 and 3: apart and
 * back-to-back) beside session 1, and feeds 16-token prefill chunks
 * -- one chunk alone (the serial plan walk), then two chunks of
 * distinct sessions (one task per chunk).
 */
PlanOutputs
run_causal_runs(const Engine& engine,
                const model::ModelConfig& config, std::size_t threads,
                quant::BlockPool* pool)
{
    constexpr std::size_t kChunk = 16;
    std::vector<Session> decoders;
    for (std::size_t i = 0; i < 2; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i == 0 ? quant::KvPrecision::kInt4
                                      : quant::KvPrecision::kFloat;
        decoders.push_back(engine.create_session(options));
        engine.prefill(decoders.back(),
                       model::synthetic_tokens(
                           5 + 6 * i, config.vocab,
                           static_cast<std::uint32_t>(60 + i)));
    }
    std::vector<Session> prefillers;
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 2; ++i) {
        SessionOptions options;
        options.kv_pool = pool;
        options.kv_precision = i == 0 ? quant::KvPrecision::kFloat
                                      : quant::KvPrecision::kInt4;
        prefillers.push_back(engine.create_session(options));
        prompts.push_back(model::synthetic_tokens(
            2 * kChunk, config.vocab,
            static_cast<std::uint32_t>(90 + i)));
    }

    // Which prefillers feed their next chunk at each iteration.
    const std::vector<std::vector<std::size_t>> feeding = {
        {0}, {0, 1}, {1}};
    std::vector<std::size_t> fed(prefillers.size(), 0);
    std::vector<int> feed = {3, 8, 13, 21};
    PlanOutputs out;
    for (const std::vector<std::size_t>& chunk_owners : feeding) {
        StepPlan plan;
        plan.threads = threads;
        plan.decode_sessions = {&decoders[0], &decoders[1],
                                &decoders[0], &decoders[0]};
        plan.decode_tokens = feed;
        for (const std::size_t i : chunk_owners) {
            StepPlan::PrefillEntry entry;
            entry.session = &prefillers[i];
            entry.tokens =
                std::span<const int>(prompts[i]).subspan(fed[i],
                                                         kChunk);
            plan.prefills.push_back(entry);
            fed[i] += kChunk;
        }
        const StepResult r = engine.step(plan);
        for (std::size_t i = 0; i < r.outputs.size(); ++i) {
            feed[i] = r.outputs[i].next_token;
            out.tokens.push_back(r.outputs[i].next_token);
            out.logits.push_back(r.outputs[i].logits);
        }
        for (const StepResult::SessionOutput& o : r.prefill_outputs) {
            out.tokens.push_back(o.next_token);
            out.logits.push_back(o.logits);
        }
    }
    return out;
}

TEST(PooledStep, ChunksAndRepeatedSessionsBitIdenticalToSerial)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 777);
    const Engine engine(sim::make_mugi(64), transformer);

    quant::BlockPool serial_pool;
    const PlanOutputs serial =
        run_causal_runs(engine, config, 0, &serial_pool);
    ASSERT_FALSE(serial.tokens.empty());
    for (const std::size_t threads : {1u, 2u, 4u}) {
        quant::BlockPool pool;
        expect_bit_identical(
            run_causal_runs(engine, config, threads, &pool), serial,
            threads);
        EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
        EXPECT_EQ(pool.check_invariants(), "");
    }
}

TEST(PooledStep, WorkerStatsReportedOnlyForPooledSteps)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    const auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    const auto one_step = [&](std::size_t threads) {
        std::vector<Session> sessions;
        for (std::size_t i = 0; i < 3; ++i) {
            sessions.push_back(engine.create_session());
            engine.prefill(sessions.back(),
                           model::synthetic_tokens(
                               4, config.vocab,
                               static_cast<std::uint32_t>(7 + i)));
        }
        StepPlan plan;
        plan.threads = threads;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            plan.decode_sessions.push_back(&sessions[i]);
            plan.decode_tokens.push_back(static_cast<int>(i + 1));
        }
        return engine.step(plan);
    };

    const StepResult serial = one_step(0);
    EXPECT_EQ(serial.workers.threads, 0u);
    EXPECT_EQ(serial.workers.tasks, 0u);
    EXPECT_EQ(serial.workers.busy_fraction, 0.0);

    const StepResult pooled = one_step(2);
    EXPECT_EQ(pooled.workers.threads, 2u);
    EXPECT_GT(pooled.workers.tasks, 0u);
    EXPECT_GE(pooled.workers.busy_fraction, 0.0);
    EXPECT_LE(pooled.workers.busy_fraction, 1.0);
    EXPECT_NEAR(
        pooled.workers.busy_fraction + pooled.workers.idle_fraction,
        1.0, 1e-9);
    // The pooled and serial steps still agree on the numerics.
    ASSERT_EQ(pooled.outputs.size(), serial.outputs.size());
    for (std::size_t i = 0; i < serial.outputs.size(); ++i) {
        EXPECT_EQ(pooled.outputs[i].next_token,
                  serial.outputs[i].next_token);
        EXPECT_EQ(pooled.outputs[i].logits, serial.outputs[i].logits);
    }
}

}  // namespace
}  // namespace serve
}  // namespace mugi
