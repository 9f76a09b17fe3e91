/**
 * @file
 * The acceptance contract of the serving API: a batched Engine::step
 * over N heterogeneous sessions must reproduce N independent
 * single-request decodes -- bit-identical functional numerics and
 * exactly-preserved op counts -- while sharing the per-step weight
 * stream.
 */

#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "quant/block_allocator.h"
#include "vlp/vlp_gemm.h"

namespace mugi {
namespace serve {
namespace {

/** Feed @p tokens to @p session; return the last logits. */
std::vector<float>
feed_tokens(model::DecodeSession& session,
            std::span<const int> tokens)
{
    std::vector<float> logits;
    for (const int token : tokens) {
        logits = session.step(token);
    }
    return logits;
}

/** Bit-identity of two logit vectors, reporting the first miss. */
void
expect_same_logits(const std::vector<float>& got,
                   const std::vector<float>& want,
                   const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_FALSE(want.empty()) << what;
    for (std::size_t v = 0; v < want.size(); ++v) {
        ASSERT_EQ(got[v], want[v]) << what << ", vocab " << v;
    }
}

TEST(MixedWorkload, OpCountsMatchIndependentDecodes)
{
    const model::ModelConfig config = model::llama2_70b();
    const std::vector<std::size_t> contexts = {128, 512, 2048, 4096};
    const model::Workload mixed =
        model::build_mixed_decode_workload(config, contexts);

    std::uint64_t macs = 0, nonlinear = 0;
    for (const std::size_t c : contexts) {
        const model::Workload single =
            model::build_decode_workload(config, 1, c);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
    }
    // Compute is preserved exactly across the batching.
    EXPECT_EQ(mixed.total_macs(), macs);
    EXPECT_EQ(mixed.total_nonlinear_elements(), nonlinear);
    EXPECT_EQ(mixed.tokens(), contexts.size());

    // Weight traffic is shared: the batch streams the WOQ weights
    // once, an independent decode streams them per request.
    const model::Workload one =
        model::build_decode_workload(config, 1, contexts[0]);
    EXPECT_EQ(mixed.total_weight_bytes(), one.total_weight_bytes());
}

TEST(MixedWorkload, DegenerateBatchMatchesSingleDecode)
{
    const model::ModelConfig config = model::llama2_7b();
    const std::size_t contexts[] = {1024};
    const model::Workload mixed =
        model::build_mixed_decode_workload(config, contexts);
    const model::Workload single =
        model::build_decode_workload(config, 1, 1024);
    EXPECT_EQ(mixed.total_macs(), single.total_macs());
    EXPECT_EQ(mixed.total_weight_bytes(),
              single.total_weight_bytes());
    EXPECT_EQ(mixed.total_nonlinear_elements(),
              single.total_nonlinear_elements());
}

TEST(EngineStep, BatchedNumericsMatchIndependentSessions)
{
    // N sessions with different context lengths stepped as one batch
    // must produce bit-identical logits to N standalone
    // model::DecodeSession streams with the same kernels.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 1234);
    const Engine engine(sim::make_mugi(64), transformer);

    // Heterogeneous contexts: prompts of different lengths.
    const std::vector<std::size_t> prompt_lens = {3, 7, 11};
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < prompt_lens.size(); ++i) {
        prompts.push_back(model::synthetic_tokens(
            prompt_lens[i], config.vocab,
            static_cast<std::uint32_t>(100 + i)));
    }

    // Engine path: prefill then batched steps.
    std::vector<Session> sessions;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        sessions.push_back(engine.create_session());
        engine.prefill(sessions.back(), prompts[i]);
    }
    // Reference path: independent DecodeSessions over a model with
    // the engine's default kernels installed.
    model::TransformerModel reference(config, 1234);
    reference.set_hooks(engine.default_hooks());
    std::vector<model::DecodeSession> independent;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        independent.emplace_back(reference,
                                 quant::KvPrecision::kInt4);
        for (const int token : prompts[i]) {
            independent[i].step(token);
        }
    }

    std::vector<Session*> batch;
    for (Session& s : sessions) batch.push_back(&s);
    std::vector<int> tokens = {5, 17, 42};
    for (int step = 0; step < 4; ++step) {
        const StepResult result = engine.step(batch, tokens);
        ASSERT_EQ(result.outputs.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::vector<float> expected =
                independent[i].step(tokens[i]);
            ASSERT_EQ(result.outputs[i].logits.size(),
                      expected.size());
            for (std::size_t v = 0; v < expected.size(); ++v) {
                // Bit-identical: same code path, same kernels.
                EXPECT_EQ(result.outputs[i].logits[v], expected[v])
                    << "session " << i << " step " << step
                    << " vocab " << v;
            }
            EXPECT_EQ(result.outputs[i].position,
                      units::Positions(
                          prompt_lens[i] +
                          static_cast<std::size_t>(step) + 1));
            tokens[i] = result.outputs[i].next_token;
        }
    }
}

TEST(EngineStep, ReportAggregatesBatchedWorkload)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    std::vector<Session> sessions;
    std::vector<Session*> batch;
    for (const std::size_t context : {255u, 1023u, 4095u}) {
        SessionOptions options;
        options.initial_context = units::Tokens(context);
        sessions.push_back(engine.create_session(options));
    }
    for (Session& s : sessions) batch.push_back(&s);

    const StepResult result = engine.step(batch);
    // One report for the whole step, all models populated.
    EXPECT_GT(result.report.perf.throughput_tokens_per_s, 0.0);
    EXPECT_GT(result.report.area.total(), 0.0);
    EXPECT_GT(result.report.carbon.total_g_per_token(), 0.0);
    EXPECT_GT(result.report.event_sim.makespan_cycles, 0.0);
    EXPECT_DOUBLE_EQ(result.report.perf.tokens, 3.0);
    // Positions advanced.
    EXPECT_EQ(sessions[0].position(), units::Positions(256));
    EXPECT_EQ(sessions[2].position(), units::Positions(4096));

    // Batched decode beats stepping the three requests one by one
    // (shared weight stream), at equal total tokens.
    sim::PerfAccumulator serial;
    for (const std::size_t context : {256u, 1024u, 4096u}) {
        serial.add(engine.evaluate_decode(config, 1, context).perf);
    }
    EXPECT_GT(result.report.perf.throughput_tokens_per_s,
              serial.total().throughput_tokens_per_s);
    EXPECT_DOUBLE_EQ(serial.total().tokens, 3.0);
}

TEST(EngineStep, EmptyBatchYieldsZeroedReportNotNaN)
{
    // A drained continuous batch must not poison accumulators with
    // 0/0 rates.
    const Engine engine(sim::make_mugi(256), model::llama2_7b());
    const StepResult result = engine.step(StepPlan{});
    EXPECT_TRUE(result.outputs.empty());
    EXPECT_EQ(result.report.perf.tokens, 0.0);
    EXPECT_EQ(result.report.perf.throughput_tokens_per_s, 0.0);

    sim::PerfAccumulator acc;
    acc.add(result.report.perf);
    Session session = engine.create_session();
    Session* batch[] = {&session};
    acc.add(engine.step(batch).report.perf);
    const sim::PerfReport total = acc.total();
    EXPECT_FALSE(std::isnan(total.throughput_tokens_per_s));
    EXPECT_GT(total.throughput_tokens_per_s, 0.0);
}

TEST(EngineStep, DuplicateSessionInBatchActsSequentially)
{
    // The scheduler never lists a session twice, but Engine::step
    // defines the behavior anyway: each occurrence is one sequential
    // step, so the fused duplicate batch (one causal run of two rows)
    // must reproduce two back-to-back steps of the token-at-a-time
    // decode_layer oracle -- bit-identical logits and the same
    // positions.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> prompt =
        model::synthetic_tokens(4, config.vocab, 7);

    Session dup = engine.create_session();
    engine.prefill(dup, prompt);
    Session* batch[] = {&dup, &dup};
    const int tokens[] = {3, 9};
    const StepResult batched = engine.step(batch, tokens);

    Session seq = engine.create_session();
    engine.prefill(seq, prompt);
    StepPlan seq_plan;
    seq_plan.fused_decode = false;
    seq_plan.decode_sessions = {&seq};
    seq_plan.decode_tokens = {3};
    const StepResult first = engine.step(seq_plan);
    seq_plan.decode_tokens = {9};
    const StepResult second = engine.step(seq_plan);

    ASSERT_EQ(batched.outputs.size(), 2u);
    EXPECT_EQ(batched.outputs[0].position, first.outputs[0].position);
    EXPECT_EQ(batched.outputs[1].position,
              second.outputs[0].position);
    EXPECT_EQ(dup.position(), seq.position());
    for (std::size_t v = 0; v < batched.outputs[0].logits.size();
         ++v) {
        EXPECT_EQ(batched.outputs[0].logits[v],
                  first.outputs[0].logits[v]);
        EXPECT_EQ(batched.outputs[1].logits[v],
                  second.outputs[0].logits[v]);
    }

    // The modeled workload charges the second occurrence one more
    // context position, exactly like the sequential pair.
    const std::size_t base = prompt.size();
    const std::size_t contexts[] = {base + 1, base + 2};
    const model::Workload expected =
        model::build_mixed_decode_workload(config, contexts);
    EXPECT_DOUBLE_EQ(
        batched.report.perf.tokens,
        static_cast<double>(expected.tokens()));
    EXPECT_DOUBLE_EQ(batched.report.perf.total_cycles,
                     sim::run_workload(engine.design(), expected)
                         .total_cycles);
}

TEST(EngineStep, SplitRunsOfOneSessionMatchTheSequentialOracle)
{
    // A session listed apart in a fused batch ([A, B, A]) gives two
    // separate one-row runs on one cache, with B's run between them.
    // The second A row must see the first A row's K/V, exactly as the
    // token-at-a-time decode_layer path (fused_decode = false) steps
    // the same list; checked for INT4 and float KV, over two steps so
    // the second one attends the positions the first appended.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const Engine engine(sim::make_mugi(64), transformer);

    for (const quant::KvPrecision precision :
         {quant::KvPrecision::kInt4, quant::KvPrecision::kFloat}) {
        SessionOptions options;
        options.kv_precision = precision;
        auto make = [&](std::uint32_t seed) {
            Session session = engine.create_session(options);
            engine.prefill(session,
                           model::synthetic_tokens(6, config.vocab,
                                                   seed));
            return session;
        };
        Session a = make(11);
        Session b = make(12);
        Session seq_a = make(11);
        Session seq_b = make(12);

        StepPlan fused_plan;
        fused_plan.decode_sessions = {&a, &b, &a};
        StepPlan seq_plan;
        seq_plan.fused_decode = false;
        seq_plan.decode_sessions = {&seq_a, &seq_b, &seq_a};
        std::vector<int> tokens = {3, 9, 14};
        for (int iteration = 0; iteration < 2; ++iteration) {
            fused_plan.decode_tokens = tokens;
            seq_plan.decode_tokens = tokens;
            const StepResult fused = engine.step(fused_plan);
            const StepResult seq = engine.step(seq_plan);
            ASSERT_EQ(fused.outputs.size(), 3u);
            ASSERT_EQ(seq.outputs.size(), 3u);
            for (std::size_t i = 0; i < 3; ++i) {
                EXPECT_EQ(fused.outputs[i].position,
                          seq.outputs[i].position);
                ASSERT_EQ(fused.outputs[i].logits.size(),
                          seq.outputs[i].logits.size());
                for (std::size_t v = 0;
                     v < seq.outputs[i].logits.size(); ++v) {
                    ASSERT_EQ(fused.outputs[i].logits[v],
                              seq.outputs[i].logits[v])
                        << "iteration " << iteration << " row " << i
                        << " logit " << v;
                }
                tokens[i] = seq.outputs[i].next_token;
            }
        }
        EXPECT_EQ(a.position(), seq_a.position());
        EXPECT_EQ(b.position(), seq_b.position());
    }
}

TEST(EngineStep, AnalyticSessionStepsPastModelMaxSeqLen)
{
    // The analytic workload model has no hard context ceiling: a
    // session stepped past the model config's max_seq_len keeps
    // producing finite, growing-cost reports (the paged-KV roadmap
    // item will bound this; the scheduler bounds it with its budget).
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    SessionOptions options;
    options.initial_context = units::Tokens(config.max_seq_len - 1);
    Session session = engine.create_session(options);

    Session* batch[] = {&session};
    double last_cycles = 0.0;
    for (int i = 0; i < 3; ++i) {
        const StepResult result = engine.step(batch);
        EXPECT_FALSE(
            std::isnan(result.report.perf.throughput_tokens_per_s));
        EXPECT_GT(result.report.perf.total_cycles, last_cycles);
        last_cycles = result.report.perf.total_cycles;
    }
    EXPECT_EQ(session.position(),
              units::Positions(config.max_seq_len + 2));
}

TEST(EngineStep, PrefillChunksAreBitIdenticalToFullPrefill)
{
    // The chunked-prefill invariant the scheduler relies on: feeding
    // a prompt in chunks is bit-identical to one prefill() call
    // (every row of a batched chunk matches feeding its token
    // alone, wherever the chunk boundaries fall).
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 5150);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> prompt =
        model::synthetic_tokens(11, config.vocab, 23);
    const std::span<const int> span(prompt);

    Session whole = engine.create_session();
    const std::vector<float> full = engine.prefill(whole, prompt);

    Session chunked = engine.create_session();
    engine.prefill_chunk(chunked, span.subspan(0, 4));
    engine.prefill_chunk(chunked, span.subspan(4, 4));
    const std::vector<float> last =
        engine.prefill_chunk(chunked, span.subspan(8));

    EXPECT_EQ(chunked.position(), whole.position());
    ASSERT_EQ(last.size(), full.size());
    for (std::size_t v = 0; v < full.size(); ++v) {
        EXPECT_EQ(last[v], full[v]);
    }
    // And the two sessions decode identically afterwards.
    const StepResult a = engine.step(whole, 13);
    const StepResult b = engine.step(chunked, 13);
    EXPECT_EQ(a.outputs[0].next_token, b.outputs[0].next_token);
}

TEST(EngineStep, BatchedPrefillMatchesPerTokenDecodeLayerOracle)
{
    // A prefill chunk runs as one causal run through
    // decode_layer_batch.  Each chunk's logits must equal a
    // token-at-a-time decode_layer loop's (model::DecodeSession over
    // a same-seed model with the engine's kernels), for INT4 and
    // float KV, with chunks that straddle a KV block boundary and a
    // whole prompt fed as one chunk.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 8080);
    const Engine engine(sim::make_mugi(64), transformer);
    model::TransformerModel reference(config, 8080);
    reference.set_hooks(engine.default_hooks());
    const std::vector<int> prompt =
        model::synthetic_tokens(40, config.vocab, 31);
    const std::span<const int> span(prompt);
    // 16-token blocks: [0, 10) fills part of block 0, [10, 22)
    // straddles the 16 boundary, [22, 40) straddles 32.
    const std::size_t cuts[] = {0, 10, 22, 40};

    for (const quant::KvPrecision precision :
         {quant::KvPrecision::kInt4, quant::KvPrecision::kFloat}) {
        const std::string kv =
            precision == quant::KvPrecision::kInt4 ? "int4" : "float";
        quant::BlockPool pool;
        SessionOptions options;
        options.kv_precision = precision;
        options.kv_pool = &pool;

        Session chunked = engine.create_session(options);
        model::DecodeSession oracle(reference, precision);
        for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
            const auto chunk =
                span.subspan(cuts[c], cuts[c + 1] - cuts[c]);
            expect_same_logits(engine.prefill_chunk(chunked, chunk),
                               feed_tokens(oracle, chunk),
                               kv + " chunk " + std::to_string(c));
            EXPECT_EQ(chunked.position(),
                      units::Positions(cuts[c + 1]));
        }

        Session whole = engine.create_session(options);
        model::DecodeSession whole_oracle(reference, precision);
        expect_same_logits(engine.prefill(whole, prompt),
                           feed_tokens(whole_oracle, prompt),
                           kv + " whole prompt");

        // Both sessions decode on identically afterwards.
        const StepResult a = engine.step(chunked, 5);
        const StepResult b = engine.step(whole, 5);
        expect_same_logits(a.outputs[0].logits, b.outputs[0].logits,
                           kv + " decode after prefill");
        expect_same_logits(a.outputs[0].logits, oracle.step(5),
                           kv + " decode vs oracle");
    }
}

TEST(EngineStep, BatchedPrefillCopiesOnWriteIntoAnAdoptedTailBlock)
{
    // A follower adopts 18 of a donor's 20 positions, so it shares
    // the donor's partly filled second block -- which also holds two
    // donor positions the follower must never see.  The follower's
    // next chunk appends 8 rows into that block (copy-on-write under
    // a multi-row append); then the donor appends its own chunk.
    // Both must match token-at-a-time oracles fed the same tokens.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 4242);
    const Engine engine(sim::make_mugi(64), transformer);
    model::TransformerModel reference(config, 4242);
    reference.set_hooks(engine.default_hooks());
    const std::vector<int> donor_prompt =
        model::synthetic_tokens(20, config.vocab, 3);
    const std::vector<int> follower_chunk =
        model::synthetic_tokens(8, config.vocab, 4);
    const std::vector<int> donor_chunk =
        model::synthetic_tokens(6, config.vocab, 5);

    for (const quant::KvPrecision precision :
         {quant::KvPrecision::kInt4, quant::KvPrecision::kFloat}) {
        const std::string kv =
            precision == quant::KvPrecision::kInt4 ? "int4" : "float";
        quant::BlockPool pool;
        SessionOptions options;
        options.kv_precision = precision;
        options.kv_pool = &pool;
        {
            Session donor = engine.create_session(options);
            engine.prefill(donor, donor_prompt);
            Session follower = engine.create_session(options);
            follower.adopt_kv_prefix(donor, units::Positions(18));
            ASSERT_GT(follower.shared_kv_blocks(), units::Blocks(0));

            model::DecodeSession follower_oracle(reference,
                                                 precision);
            feed_tokens(follower_oracle,
                        std::span<const int>(donor_prompt).first(18));
            expect_same_logits(
                engine.prefill_chunk(follower, follower_chunk),
                feed_tokens(follower_oracle, follower_chunk),
                kv + " follower chunk");

            model::DecodeSession donor_oracle(reference, precision);
            feed_tokens(donor_oracle, donor_prompt);
            expect_same_logits(
                engine.prefill_chunk(donor, donor_chunk),
                feed_tokens(donor_oracle, donor_chunk),
                kv + " donor chunk");
            EXPECT_EQ(pool.check_invariants(), "");
        }
        EXPECT_EQ(pool.blocks_in_use(), units::Blocks(0));
    }
}

TEST(EngineStep, PrefillChargesOneFusedPassAndOneLmHeadRow)
{
    // A prefill chunk runs each projection as one GEMM over its T
    // rows and the LM head on its last row only; StepResult::gemm
    // must charge exactly that.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 31);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> chunk =
        model::synthetic_tokens(12, config.vocab, 9);
    const std::size_t T = chunk.size();

    const int rows = static_cast<int>(engine.design().array_rows);
    const int cols = static_cast<int>(engine.design().array_cols);
    const std::size_t d = config.d_model;
    const std::size_t kv = config.num_kv_heads * config.head_dim();
    const std::size_t ff = config.d_ff;
    // (N, K) of each layer projection: wq, wk, wv, wo, [gate], up,
    // down.
    std::vector<std::pair<std::size_t, std::size_t>> projections = {
        {d, d}, {kv, d}, {kv, d}, {d, d}};
    if (config.gated_ffn()) {
        projections.emplace_back(ff, d);
    }
    projections.emplace_back(ff, d);
    projections.emplace_back(d, ff);

    std::uint64_t cycles = 0;
    std::uint64_t subscriptions = 0;
    for (std::size_t l = 0; l < config.num_layers; ++l) {
        for (const auto& [n, k] : projections) {
            cycles += vlp::vlp_gemm_mugi_cycles(n, T, k, rows, cols);
            subscriptions += static_cast<std::uint64_t>(n) * k * T;
        }
    }
    cycles +=
        vlp::vlp_gemm_mugi_cycles(config.vocab, 1, d, rows, cols);
    subscriptions += static_cast<std::uint64_t>(config.vocab) * d;

    Session session = engine.create_session();
    StepPlan plan;
    plan.prefills.push_back({&session, chunk, units::Tokens(0)});
    const StepResult result = engine.step(plan);
    EXPECT_EQ(result.gemm.cycles, cycles);
    EXPECT_EQ(result.gemm.sweeps,
              cycles >> numerics::kInt4MagnitudeBits);
    EXPECT_EQ(result.gemm.subscriptions, subscriptions);

    // Strictly cheaper than T single-token passes: fewer cycles and
    // fewer subscriptions (T - 1 LM-head rows are never computed).
    Session one = engine.create_session();
    const StepResult single = engine.step(one, chunk[0]);
    EXPECT_LT(result.gemm.cycles, T * single.gemm.cycles);
    EXPECT_LT(result.gemm.subscriptions,
              T * single.gemm.subscriptions);
}

TEST(EngineStep, FusedDecodeBitIdenticalToSequentialWithMixedKv)
{
    // The fused-step contract: stacking the batch's embeddings and
    // running one projection GEMM per layer must reproduce the
    // sequential per-session path bit for bit, across sessions with
    // different KV precisions, context lengths and per-layer window
    // tunings.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 555);
    const Engine engine(sim::make_mugi(64), transformer);

    const quant::KvPrecision precisions[] = {
        quant::KvPrecision::kFloat, quant::KvPrecision::kInt4,
        quant::KvPrecision::kFloat, quant::KvPrecision::kInt4};
    const std::size_t prompt_lens[] = {2, 5, 9, 3};

    const auto make_batch = [&] {
        std::vector<Session> sessions;
        for (std::size_t i = 0; i < 4; ++i) {
            SessionOptions options;
            options.kv_precision = precisions[i];
            sessions.push_back(engine.create_session(options));
            engine.prefill(sessions.back(),
                           model::synthetic_tokens(
                               prompt_lens[i], config.vocab,
                               static_cast<std::uint32_t>(70 + i)));
        }
        // A per-layer retune on one session must stay per-row.
        vlp::VlpConfig narrow = default_vlp_config(
            nonlinear::NonlinearOp::kExp,
            engine.design().array_rows);
        narrow.window_size = 4;
        const auto window = engine.kernels().get(narrow);
        model::NonlinearHooks hooks = engine.default_hooks();
        hooks.softmax_exp = window.get();
        sessions[1].set_layer_hooks(0, hooks);
        sessions[1].retain_kernel(window);
        return sessions;
    };

    std::vector<Session> fused_sessions = make_batch();
    std::vector<Session> seq_sessions = make_batch();
    std::vector<int> fused_tokens = {3, 11, 25, 40};
    std::vector<int> seq_tokens = fused_tokens;
    for (int step = 0; step < 3; ++step) {
        StepPlan fused_plan;
        fused_plan.fused_decode = true;
        StepPlan seq_plan;
        seq_plan.fused_decode = false;
        for (std::size_t i = 0; i < 4; ++i) {
            fused_plan.decode_sessions.push_back(&fused_sessions[i]);
            seq_plan.decode_sessions.push_back(&seq_sessions[i]);
        }
        fused_plan.decode_tokens = fused_tokens;
        seq_plan.decode_tokens = seq_tokens;
        const StepResult fused = engine.step(fused_plan);
        const StepResult seq = engine.step(seq_plan);
        ASSERT_EQ(fused.outputs.size(), seq.outputs.size());
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(fused.outputs[i].position,
                      seq.outputs[i].position);
            ASSERT_EQ(fused.outputs[i].logits.size(),
                      seq.outputs[i].logits.size());
            for (std::size_t v = 0; v < seq.outputs[i].logits.size();
                 ++v) {
                EXPECT_EQ(fused.outputs[i].logits[v],
                          seq.outputs[i].logits[v])
                    << "session " << i << " step " << step
                    << " vocab " << v;
            }
            fused_tokens[i] = fused.outputs[i].next_token;
            seq_tokens[i] = seq.outputs[i].next_token;
        }
        EXPECT_EQ(fused_tokens, seq_tokens) << "step " << step;
        // The fused charge amortizes column tiles across the batch:
        // strictly fewer cycles/sweeps for batch > array width
        // fraction, identical subscriptions (same MAC count).
        EXPECT_LT(fused.gemm.cycles, seq.gemm.cycles);
        EXPECT_LT(fused.gemm.sweeps, seq.gemm.sweeps);
        EXPECT_EQ(fused.gemm.subscriptions, seq.gemm.subscriptions);
        EXPECT_GT(fused.gemm.cycles, 0u);
    }
}

TEST(EngineStep, FusedBatchOfOneChargesLikeSequential)
{
    // A single-session batch has nothing to amortize: the fused and
    // sequential charges must agree exactly.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 77);
    const Engine engine(sim::make_mugi(64), transformer);
    Session a = engine.create_session();
    Session b = engine.create_session();
    engine.prefill(a, std::vector<int>{1, 2});
    engine.prefill(b, std::vector<int>{1, 2});

    StepPlan fused_plan;
    fused_plan.decode_sessions = {&a};
    fused_plan.decode_tokens = {5};
    StepPlan seq_plan = fused_plan;
    seq_plan.decode_sessions = {&b};
    seq_plan.fused_decode = false;
    const StepResult fused = engine.step(fused_plan);
    const StepResult seq = engine.step(seq_plan);
    ASSERT_EQ(fused.outputs[0].logits.size(),
              seq.outputs[0].logits.size());
    for (std::size_t v = 0; v < seq.outputs[0].logits.size(); ++v) {
        EXPECT_EQ(fused.outputs[0].logits[v],
                  seq.outputs[0].logits[v]);
    }
    EXPECT_EQ(fused.gemm.cycles, seq.gemm.cycles);
    EXPECT_EQ(fused.gemm.sweeps, seq.gemm.sweeps);
    EXPECT_EQ(fused.gemm.subscriptions, seq.gemm.subscriptions);
}

TEST(EngineStep, FusedDecodeTracksPostConstructionWeightMutation)
{
    // examples/llm_inference applies WOQ to the transformer *after*
    // constructing the Engine.  The fused path must read the live
    // weights (no load-time snapshot), so both paths see the
    // mutation and stay bit-identical.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 2024);
    const Engine engine(sim::make_mugi(64), transformer);
    Session fused_s = engine.create_session();
    Session seq_s = engine.create_session();
    const std::vector<int> prompt =
        model::synthetic_tokens(4, config.vocab, 7);
    engine.prefill(fused_s, prompt);
    engine.prefill(seq_s, prompt);

    transformer->apply_woq(32);  // INT4 weights from here on.

    StepPlan fused_plan;
    fused_plan.decode_sessions = {&fused_s};
    fused_plan.decode_tokens = {9};
    StepPlan seq_plan = fused_plan;
    seq_plan.decode_sessions = {&seq_s};
    seq_plan.fused_decode = false;
    const StepResult fused = engine.step(fused_plan);
    const StepResult seq = engine.step(seq_plan);
    ASSERT_EQ(fused.outputs[0].logits.size(),
              seq.outputs[0].logits.size());
    for (std::size_t v = 0; v < seq.outputs[0].logits.size(); ++v) {
        EXPECT_EQ(fused.outputs[0].logits[v],
                  seq.outputs[0].logits[v])
            << v;
    }
}

TEST(EngineStep, AnalyticStepsChargeNoFunctionalGemm)
{
    const Engine engine(sim::make_mugi(256), model::llama2_7b());
    Session session = engine.create_session();
    Session* batch[] = {&session};
    const StepResult result = engine.step(batch);
    EXPECT_EQ(result.gemm.cycles, 0u);
    EXPECT_EQ(result.gemm.subscriptions, 0u);
}

TEST(EngineSession, SessionOutlivesEngine)
{
    // Sessions retain their default kernels: using one after its
    // engine is gone must not touch freed registry state.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 55);
    auto engine = std::make_unique<Engine>(sim::make_mugi(64),
                                           transformer);
    Session session = engine->create_session();
    const Engine replacement(sim::make_mugi(64), transformer);
    engine.reset();  // Original registry destroyed.
    const StepResult result = replacement.step(session, 9);
    EXPECT_FALSE(result.outputs[0].logits.empty());
}

TEST(EngineStep, ConcurrentDisjointBatchesAreSafe)
{
    // The engine is immutable: disjoint session sets may step
    // concurrently through one shared instance.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    constexpr int kThreads = 4;
    constexpr int kSteps = 8;
    std::vector<std::vector<float>> last_logits(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Session session = engine.create_session();
            int token = 7;  // Same stream in every thread.
            for (int s = 0; s < kSteps; ++s) {
                const StepResult result = engine.step(session, token);
                token = result.outputs[0].next_token;
                last_logits[t] = result.outputs[0].logits;
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    // Identical inputs through shared kernels: identical outputs.
    for (int t = 1; t < kThreads; ++t) {
        ASSERT_EQ(last_logits[t].size(), last_logits[0].size());
        for (std::size_t v = 0; v < last_logits[0].size(); ++v) {
            EXPECT_EQ(last_logits[t][v], last_logits[0][v]);
        }
    }
}

TEST(EngineSession, PerLayerWindowTuningIsPerSession)
{
    // Two concurrent sessions, one with a deliberately bad softmax
    // window on layer 0: outputs must differ from the default
    // session while the default matches an untuned reference.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 4321);
    const Engine engine(sim::make_mugi(64), transformer);

    Session tuned = engine.create_session();
    Session plain = engine.create_session();

    vlp::VlpConfig bad = default_vlp_config(
        nonlinear::NonlinearOp::kExp, engine.design().array_rows);
    bad.lut_max_exp = -8;  // Far below the profiled band.
    bad.lut_min_exp = -15;
    const auto bad_kernel = engine.kernels().get(bad);
    model::NonlinearHooks bad_hooks = engine.default_hooks();
    bad_hooks.softmax_exp = bad_kernel.get();
    tuned.set_layer_hooks(0, bad_hooks);
    tuned.retain_kernel(bad_kernel);

    // Build context first: the window only matters once softmax rows
    // span multiple cached positions.
    const std::vector<int> prompt =
        model::synthetic_tokens(5, config.vocab, 17);
    engine.prefill(tuned, prompt);
    engine.prefill(plain, prompt);

    Session* batch[] = {&tuned, &plain};
    const int tokens[] = {3, 3};
    const StepResult result = engine.step(batch, tokens);

    model::TransformerModel reference(config, 4321);
    reference.set_hooks(engine.default_hooks());
    model::DecodeSession ref_session(reference,
                                     quant::KvPrecision::kInt4);
    for (const int token : prompt) {
        ref_session.step(token);
    }
    const std::vector<float> expected = ref_session.step(3);

    bool differs = false;
    for (std::size_t v = 0; v < expected.size(); ++v) {
        EXPECT_EQ(result.outputs[1].logits[v], expected[v]);
        differs |= result.outputs[0].logits[v] != expected[v];
    }
    EXPECT_TRUE(differs)
        << "bad layer-0 window must perturb the tuned session";
}

}  // namespace
}  // namespace serve
}  // namespace mugi
