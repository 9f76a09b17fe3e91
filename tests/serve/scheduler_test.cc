/**
 * @file
 * Acceptance contract of the request-lifecycle API
 * (serve::Scheduler): (1) a mixed prefill+decode step preserves the
 * exact-sum workload invariant -- its MACs / nonlinear elements
 * equal the sum of the equivalent standalone prefill-chunk and
 * decode workloads; (2) the functional scheduler's output is
 * bit-identical to serving the same requests one at a time; (3)
 * admission control keeps the exact KV footprint under the budget.
 */

#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "model/accuracy.h"
#include "model/workload.h"
#include "support/audit.h"

namespace mugi {
namespace serve {
namespace {

// ---- (1) Mixed-step workload: the exact-sum invariant. ----

TEST(MixedStepWorkload, ExactSumOfStandaloneChunkAndDecodeWorkloads)
{
    const model::ModelConfig config = model::llama2_70b();
    const std::vector<std::size_t> decode_contexts = {64, 300, 4096};
    const std::vector<model::PrefillChunk> chunks = {
        {0, 32}, {100, 57}, {512, 256}};

    const model::Workload mixed = model::build_mixed_step_workload(
        config, decode_contexts, chunks);

    std::uint64_t macs = 0, nonlinear = 0;
    std::size_t tokens = 0;
    for (const std::size_t c : decode_contexts) {
        const model::Workload single =
            model::build_decode_workload(config, 1, c);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
        tokens += single.tokens();
    }
    for (const model::PrefillChunk& chunk : chunks) {
        const model::Workload single =
            model::build_prefill_chunk_workload(config, chunk);
        macs += single.total_macs();
        nonlinear += single.total_nonlinear_elements();
        tokens += single.tokens();
    }
    EXPECT_EQ(mixed.total_macs(), macs);
    EXPECT_EQ(mixed.total_nonlinear_elements(), nonlinear);
    EXPECT_EQ(mixed.tokens(), tokens);

    // The whole mixed step streams the WOQ weights exactly once.
    const model::Workload one =
        model::build_decode_workload(config, 1, decode_contexts[0]);
    EXPECT_EQ(mixed.total_weight_bytes(), one.total_weight_bytes());
}

TEST(MixedStepWorkload, ChunkingNeverChangesTotalAttention)
{
    // Splitting a prompt into chunks must not change the summed
    // causal-attention volume: attended() is exact, not an average.
    const model::ModelConfig config = model::llama2_7b();
    const model::PrefillChunk whole = {0, 100};
    const std::vector<model::PrefillChunk> split = {
        {0, 50}, {50, 30}, {80, 20}};

    const model::Workload whole_w =
        model::build_prefill_chunk_workload(config, whole);
    std::uint64_t macs = 0, nonlinear = 0;
    for (const model::PrefillChunk& chunk : split) {
        const model::Workload w =
            model::build_prefill_chunk_workload(config, chunk);
        macs += w.total_macs();
        nonlinear += w.total_nonlinear_elements();
    }
    EXPECT_EQ(whole_w.total_macs(), macs);
    EXPECT_EQ(whole_w.total_nonlinear_elements(), nonlinear);

    // attended() arithmetic: chunk of C tokens after S cached ones
    // attends S*C + C(C+1)/2 positions.
    EXPECT_EQ((model::PrefillChunk{0, 4}).attended(), 10u);
    EXPECT_EQ((model::PrefillChunk{10, 3}).attended(), 36u);
}

TEST(MixedStepWorkload, EmptyChunksDegenerateToMixedDecode)
{
    const model::ModelConfig config = model::llama2_13b();
    const std::vector<std::size_t> contexts = {17, 900};
    const model::Workload decode_only =
        model::build_mixed_decode_workload(config, contexts);
    const model::Workload step =
        model::build_mixed_step_workload(config, contexts, {});
    EXPECT_EQ(step.total_macs(), decode_only.total_macs());
    EXPECT_EQ(step.total_weight_bytes(),
              decode_only.total_weight_bytes());
    EXPECT_EQ(step.total_nonlinear_elements(),
              decode_only.total_nonlinear_elements());
    EXPECT_EQ(step.tokens(), decode_only.tokens());
}

// ---- (2) Functional scheduler == sequential serving. ----

TEST(Scheduler, FunctionalOutputBitIdenticalToSequentialServing)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 777);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<std::size_t> prompt_lens = {5, 9, 13, 6};
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < prompt_lens.size(); ++i) {
        prompts.push_back(model::synthetic_tokens(
            prompt_lens[i], config.vocab,
            static_cast<std::uint32_t>(40 + i)));
    }
    const std::size_t kMaxNew = 6;

    // Reference: one request at a time, full prefill then stepping.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Scheduler: tiny chunks force multi-chunk prefill, and a small
    // batch target forces queueing -- neither may change numerics.
    SchedulerConfig sched_config;
    sched_config.prefill_chunk_tokens = units::Tokens(4);
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (const std::vector<int>& prompt : prompts) {
        Request request;
        request.prompt = prompt;
        request.max_new_tokens = units::Tokens(kMaxNew);
        ids.push_back(scheduler.submit(std::move(request)));
    }
    std::vector<FinishedRequest> finished = scheduler.run();

    ASSERT_EQ(finished.size(), prompts.size());
    for (std::size_t i = 0; i < finished.size(); ++i) {
        // Map back by id (finish order may differ from submission).
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(ids.begin(),
                          std::find(ids.begin(), ids.end(),
                                    finished[i].id)));
        ASSERT_LT(idx, expected.size());
        EXPECT_EQ(finished[i].tokens, expected[idx])
            << "request " << idx << " diverged from sequential serving";
        EXPECT_EQ(finished[i].generated, units::Tokens(kMaxNew));
        EXPECT_EQ(finished[i].prompt_tokens,
                  units::Tokens(prompt_lens[idx]));
        EXPECT_EQ(finished[i].reason, FinishReason::kMaxTokens);
    }
}

TEST(Scheduler, StopTokenEndsGenerationEarly)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 321);
    const Engine engine(sim::make_mugi(64), transformer);
    const std::vector<int> prompt =
        model::synthetic_tokens(7, config.vocab, 11);

    // Learn the greedy continuation, then stop on its third token.
    Request probe;
    probe.prompt = prompt;
    probe.max_new_tokens = units::Tokens(5);
    Scheduler probe_scheduler(engine, {});
    probe_scheduler.submit(probe);
    const std::vector<int> continuation =
        probe_scheduler.run()[0].tokens;
    ASSERT_EQ(continuation.size(), 5u);

    Request request;
    request.prompt = prompt;
    request.max_new_tokens = units::Tokens(5);
    request.stop_token = continuation[2];
    Scheduler scheduler(engine, {});
    scheduler.submit(std::move(request));
    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].reason, FinishReason::kStopToken);
    ASSERT_EQ(finished[0].tokens.size(), 3u);
    EXPECT_EQ(finished[0].tokens[2], continuation[2]);
}

TEST(Scheduler, StreamsTokensInOrder)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 99);
    const Engine engine(sim::make_mugi(64), transformer);

    std::vector<std::pair<std::size_t, int>> streamed;
    Request request;
    request.prompt = model::synthetic_tokens(6, config.vocab, 3);
    request.max_new_tokens = units::Tokens(4);
    request.on_token = [&](std::uint64_t, std::size_t index,
                           int token) {
        streamed.emplace_back(index, token);
    };
    Scheduler scheduler(engine, {});
    scheduler.submit(std::move(request));
    const std::vector<FinishedRequest> finished = scheduler.run();

    ASSERT_EQ(streamed.size(), 4u);
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].first, i);
        EXPECT_EQ(streamed[i].second, finished[0].tokens[i]);
    }
}

// ---- (3) Admission control under the KV budget. ----

TEST(Scheduler, KvBudgetCapsConcurrencyAndPeakFootprint)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    // Per-request projection: prompt 96 + 32 new tokens of INT4 KV.
    const units::Bytes per_request =
        quant::KvCache::bytes_per_position(
            config.num_kv_heads, config.head_dim(),
            quant::KvPrecision::kInt4) *
        config.num_layers * (96 + 32);

    SchedulerConfig sched_config;
    sched_config.kv_budget_bytes =
        per_request * 2 + per_request / 2;
    sched_config.prefill_chunk_tokens = units::Tokens(48);
    sched_config.max_batch = 8;  // Budget binds before the batch cap.
    Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 5; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(96);
        request.max_new_tokens = units::Tokens(32);
        scheduler.submit(std::move(request));
    }

    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    EXPECT_EQ(max_active, 2u) << "budget admits exactly two requests";

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 5u);
    EXPECT_LE(stats.peak_kv_bytes, sched_config.kv_budget_bytes);
    EXPECT_GT(stats.peak_kv_bytes, units::Bytes(0));
    // Later requests waited in the admission queue.
    EXPECT_GT(stats.mean_queue_s, 0.0);
}

TEST(Scheduler, OversizedRequestStillRunsAlone)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    SchedulerConfig sched_config;
    sched_config.kv_budget_bytes = units::Bytes(1);  // Smaller than any request.
    Scheduler scheduler(engine, sched_config);
    Request request;
    request.analytic_prompt_tokens = units::Tokens(16);
    request.max_new_tokens = units::Tokens(4);
    scheduler.submit(std::move(request));
    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_EQ(finished[0].generated, units::Tokens(4));
}

// ---- Paged KV: block reservation and preemption. ----

TEST(Scheduler, PreemptionKeepsOutputBitIdentical)
{
    // The paged-KV acceptance bar: a run that evicts a request under
    // memory pressure and re-prefills it must emit exactly the tokens
    // an uncontended sequential run emits.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 555);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<std::vector<int>> prompts = {
        model::synthetic_tokens(6, config.vocab, 71),
        model::synthetic_tokens(6, config.vocab, 72)};
    const std::size_t kMaxNew = 10;

    // Reference: one request at a time, no contention.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Budget admits both prompts but not both full generations: with
    // 4-token blocks, each request needs 2 block-groups at admission
    // (7 positions) and 4 by the end (16 positions), so a 5-group
    // budget forces the later-admitted request out mid-decode.
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (const std::vector<int>& prompt : prompts) {
        Request request;
        request.prompt = prompt;
        request.max_new_tokens = units::Tokens(kMaxNew);
        ids.push_back(scheduler.submit(std::move(request)));
    }
    const std::vector<FinishedRequest> finished = scheduler.run();

    EXPECT_GE(scheduler.preemptions(), 1u)
        << "the budget must actually trigger an eviction";
    ASSERT_EQ(finished.size(), prompts.size());
    std::size_t preempted_requests = 0;
    for (const FinishedRequest& f : finished) {
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(ids.begin(),
                          std::find(ids.begin(), ids.end(), f.id)));
        ASSERT_LT(idx, expected.size());
        EXPECT_EQ(f.tokens, expected[idx])
            << "request " << idx
            << " diverged after preempt + re-prefill";
        EXPECT_EQ(f.generated, units::Tokens(kMaxNew));
        preempted_requests += f.preemptions > 0 ? 1 : 0;
    }
    EXPECT_GE(preempted_requests, 1u);
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.preemptions, scheduler.preemptions());
    // Recompute work shows up as extra prefill tokens: both prompts
    // plus at least the victim's replayed history.
    EXPECT_GT(stats.prefill_tokens,
              units::Tokens(2 * prompts[0].size()));
}

TEST(Scheduler, PriorityChoosesThePreemptionVictim)
{
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 556);
    const Engine engine(sim::make_mugi(64), transformer);

    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);

    // The earlier-submitted request has *lower* priority, so it --
    // not the default tie-break victim -- must be evicted.
    Request low;
    low.prompt = model::synthetic_tokens(6, config.vocab, 81);
    low.max_new_tokens = units::Tokens(10);
    low.priority = -1;
    const std::uint64_t low_id = scheduler.submit(std::move(low));
    Request high;
    high.prompt = model::synthetic_tokens(6, config.vocab, 82);
    high.max_new_tokens = units::Tokens(10);
    const std::uint64_t high_id = scheduler.submit(std::move(high));

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    ASSERT_GE(scheduler.preemptions(), 1u);
    for (const FinishedRequest& f : finished) {
        if (f.id == low_id) {
            EXPECT_GE(f.preemptions, 1u);
        } else {
            EXPECT_EQ(f.id, high_id);
            EXPECT_EQ(f.preemptions, 0u);
        }
    }
}

TEST(Scheduler, PagedReservationAdmitsMoreThanFullProjection)
{
    // The motivating claim: at the same budget, block-level
    // reservation keeps strictly more sessions resident than
    // admitting against each request's full projected length.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const std::size_t B = 8;
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(B)).paged_bytes;

    const auto serve_trace = [&](AdmissionMode mode,
                                 std::size_t* max_active,
                                 ServerStats* stats_out) {
        SchedulerConfig sched_config;
        sched_config.admission = mode;
        sched_config.kv_block_tokens = units::Tokens(B);
        sched_config.kv_budget_bytes = group * 12;
        sched_config.prefill_chunk_tokens = units::Tokens(24);
        sched_config.max_batch = 8;
        Scheduler scheduler(engine, sched_config);
        for (int i = 0; i < 4; ++i) {
            Request request;
            request.analytic_prompt_tokens = units::Tokens(24);
            request.max_new_tokens = units::Tokens(60);
            scheduler.submit(std::move(request));
        }
        *max_active = 0;
        while (scheduler.step()) {
            *max_active = std::max(*max_active, scheduler.active());
        }
        *stats_out = scheduler.stats();
    };

    std::size_t active_projection = 0, active_paged = 0;
    ServerStats projection, paged;
    serve_trace(AdmissionMode::kFullProjection, &active_projection,
                &projection);
    serve_trace(AdmissionMode::kPagedReservation, &active_paged,
                &paged);

    EXPECT_EQ(projection.finished, 4u);
    EXPECT_EQ(paged.finished, 4u);
    // Projection charges ceil(84/8) = 11 groups per request up front:
    // the 12-group budget serializes everything.  Paged charges
    // ceil(25/8) = 4 groups + watermark and reclaims under pressure.
    EXPECT_EQ(active_projection, 1u);
    EXPECT_GT(active_paged, active_projection);
    // Projection never preempts (its reservation covers the full
    // generation); paged trades preemptions for concurrency.
    EXPECT_EQ(projection.preemptions, 0u);
    // Both disciplines respect the budget's high-water mark.
    EXPECT_LE(projection.peak_kv_bytes, 12 * group);
    EXPECT_LE(paged.peak_kv_bytes, 12 * group);
    EXPECT_GT(paged.peak_pool_utilization,
              projection.peak_pool_utilization);
}

TEST(Scheduler, PoolExhaustionRefusesAdmissionUntilBlocksFree)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const std::size_t B = 8;
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(B)).paged_bytes;

    // Each request needs 4 block-groups (25 positions at B=8); a
    // 5-group budget cannot hold two plus the watermark, so the
    // second waits for the first to release its blocks.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(B);
    sched_config.kv_budget_bytes = group * 5;
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    for (int i = 0; i < 2; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(24);
        request.max_new_tokens = units::Tokens(4);
        scheduler.submit(std::move(request));
    }
    std::size_t max_active = 0;
    bool saw_refusal = false;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        saw_refusal |=
            scheduler.active() == 1 && scheduler.queued() == 1;
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    EXPECT_EQ(max_active, 1u);
    EXPECT_TRUE(saw_refusal);
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.preemptions, 0u);
}

// ---- Prefix caching: refcounted block reuse across requests. ----

TEST(Scheduler, PrefixCachingSharesBlocksAndKeepsTokensBitIdentical)
{
    // The tentpole acceptance bar: requests sharing a long system
    // prompt reuse the donor's resident KV blocks -- prefill work
    // drops, TTFT improves, and the generated tokens stay
    // bit-identical to a run with sharing disabled.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 808);
    const Engine engine(sim::make_mugi(64), transformer);

    // 12 shared tokens (3 blocks at B=4) + 3 distinct suffix tokens.
    const std::vector<int> system_prompt =
        model::synthetic_tokens(12, config.vocab, 900);
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<int> prompt = system_prompt;
        const std::vector<int> suffix = model::synthetic_tokens(
            3, config.vocab, static_cast<std::uint32_t>(910 + i));
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        prompts.push_back(std::move(prompt));
    }

    const auto serve_trace = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(4);
        sched_config.prefill_chunk_tokens = units::Tokens(64);
        sched_config.max_batch = 4;
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < prompts.size(); ++i) {
            Request request;
            request.prompt = prompts[i];
            // The donor finishes early so its blocks outlive it via
            // the sharers' refcounts.
            request.max_new_tokens = units::Tokens(i == 0 ? 2 : 6);
            // Sharers arrive one modeled instant later, after the
            // donor's prefill made the prefix resident.
            request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
            ids.push_back(scheduler.submit(std::move(request)));
        }
        std::vector<FinishedRequest> finished = scheduler.run();
        // Everything released: the pool must drain to exactly zero.
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
        std::vector<std::vector<int>> tokens(prompts.size());
        for (FinishedRequest& f : finished) {
            const std::size_t idx = static_cast<std::size_t>(
                std::distance(ids.begin(),
                              std::find(ids.begin(), ids.end(),
                                        f.id)));
            tokens[idx] = std::move(f.tokens);
        }
        return std::make_pair(std::move(tokens), scheduler.stats());
    };

    const auto [tokens_off, stats_off] = serve_trace(false);
    const auto [tokens_on, stats_on] = serve_trace(true);

    // Bit-identical generations, request by request.
    ASSERT_EQ(tokens_on.size(), tokens_off.size());
    for (std::size_t i = 0; i < tokens_on.size(); ++i) {
        EXPECT_EQ(tokens_on[i], tokens_off[i])
            << "request " << i << " diverged under prefix sharing";
    }

    // Three sharers each mapped 3 blocks / 12 tokens of prompt.
    EXPECT_EQ(stats_off.prefix_hits, 0u);
    EXPECT_EQ(stats_off.saved_prefill_tokens, units::Tokens(0));
    EXPECT_EQ(stats_on.prefix_hits, 3u);
    EXPECT_EQ(stats_on.shared_blocks, units::Blocks(9));
    EXPECT_EQ(stats_on.saved_prefill_tokens, units::Tokens(36));
    EXPECT_EQ(stats_on.prefill_tokens + units::Tokens(36), stats_off.prefill_tokens);
    // Skipping prefill work makes the mean TTFT strictly better, and
    // physical sharing makes the peak footprint strictly smaller.
    EXPECT_LT(stats_on.mean_ttft_s, stats_off.mean_ttft_s);
    EXPECT_LT(stats_on.peak_kv_bytes, stats_off.peak_kv_bytes);
}

TEST(Scheduler, PreemptionNeverFreesASharedBlockUnderTheSharer)
{
    // A sharer evicted under pressure must not take the donor's
    // blocks with it, and (re-)admission plus recompute must keep
    // its output bit-identical to an uncontended run.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 809);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<int> system_prompt =
        model::synthetic_tokens(8, config.vocab, 930);
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 2; ++i) {
        std::vector<int> prompt = system_prompt;
        const std::vector<int> suffix = model::synthetic_tokens(
            2, config.vocab, static_cast<std::uint32_t>(940 + i));
        prompt.insert(prompt.end(), suffix.begin(), suffix.end());
        prompts.push_back(std::move(prompt));
    }
    const std::size_t kMaxNew = 8;

    // Reference: uncontended sequential serving.
    std::vector<std::vector<int>> expected;
    for (const std::vector<int>& prompt : prompts) {
        Session session = engine.create_session();
        std::vector<float> logits = engine.prefill(session, prompt);
        std::vector<int> generated;
        int token = static_cast<int>(std::distance(
            logits.begin(),
            std::max_element(logits.begin(), logits.end())));
        generated.push_back(token);
        while (generated.size() < kMaxNew) {
            const StepResult r = engine.step(session, token);
            token = r.outputs[0].next_token;
            generated.push_back(token);
        }
        expected.push_back(std::move(generated));
    }

    // Each request ends at 17 positions = 5 groups (B=4); 2 groups
    // are shared, so the pair peaks at 8 distinct groups -- a
    // 6-group budget admits both (sharing discounts the sharer to 1
    // group up front) but must evict the sharer mid-decode.
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.kv_budget_bytes = group * 6;
    sched_config.max_batch = 2;
    sched_config.prefill_chunk_tokens = units::Tokens(64);
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        Request request;
        request.prompt = prompts[i];
        request.max_new_tokens = units::Tokens(kMaxNew);
        request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
        ids.push_back(scheduler.submit(std::move(request)));
    }
    const std::vector<FinishedRequest> finished = scheduler.run();

    EXPECT_GE(scheduler.preemptions(), 1u)
        << "the budget must actually evict the sharer";
    const ServerStats stats = scheduler.stats();
    EXPECT_GE(stats.prefix_hits, 1u) << "sharing must happen first";
    ASSERT_EQ(finished.size(), prompts.size());
    for (const FinishedRequest& f : finished) {
        const std::size_t idx = static_cast<std::size_t>(
            std::distance(ids.begin(),
                          std::find(ids.begin(), ids.end(), f.id)));
        ASSERT_LT(idx, expected.size());
        EXPECT_EQ(f.tokens, expected[idx])
            << "request " << idx
            << " diverged after sharing + preemption";
    }
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

TEST(Scheduler, AnalyticPrefixGroupsShareRefcountedReservations)
{
    // Analytic serving mirrors the tentpole: requests declaring a
    // common prefix_group skip the shared chunks and charge the
    // shared reservation once across sharers.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);

    const auto serve_trace = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(16);
        sched_config.prefill_chunk_tokens = units::Tokens(128);
        sched_config.max_batch = 4;
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        for (std::size_t i = 0; i < 3; ++i) {
            Request request;
            request.analytic_prompt_tokens = units::Tokens(80);
            request.max_new_tokens = units::Tokens(8);
            request.prefix_group = 77;
            request.prefix_tokens = units::Tokens(64);
            request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
            scheduler.submit(std::move(request));
        }
        scheduler.run();
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0))
            << "refcounted reservations must unwind to exactly zero";
        return scheduler.stats();
    };

    const ServerStats off = serve_trace(false);
    const ServerStats on = serve_trace(true);
    EXPECT_EQ(off.finished, 3u);
    EXPECT_EQ(on.finished, 3u);
    EXPECT_EQ(off.prefix_hits, 0u);
    // Two sharers x 4 blocks x 16 tokens of skipped prefill.
    EXPECT_EQ(on.prefix_hits, 2u);
    EXPECT_EQ(on.shared_blocks, units::Blocks(8));
    EXPECT_EQ(on.saved_prefill_tokens, units::Tokens(128));
    EXPECT_EQ(on.prefill_tokens + units::Tokens(128), off.prefill_tokens);
    EXPECT_LT(on.mean_ttft_s, off.mean_ttft_s);
    // The shared reservation is charged once, not per sharer.
    EXPECT_LT(on.peak_kv_bytes, off.peak_kv_bytes);
}

TEST(Scheduler, AnalyticSharerIsResidentBeforeThePressureCheck)
{
    // Regression: the sharer's adopted prefix must count as resident
    // the moment it is admitted.  It used to be credited only by the
    // post-step reservation sync, so the pre-step pressure check saw
    // the full un-discounted growth slack and preempt-thrashed the
    // sharer on a budget it actually fits.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(16)).paged_bytes;

    // Donor + sharer peak at 8 distinct groups (6 each, 4 shared);
    // with the watermark, 9 groups fit both for the whole run.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(16);
    sched_config.kv_budget_bytes = group * 9;
    sched_config.prefill_chunk_tokens = units::Tokens(128);
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    for (std::size_t i = 0; i < 2; ++i) {
        Request request;
        request.analytic_prompt_tokens = units::Tokens(80);
        request.max_new_tokens = units::Tokens(8);
        request.prefix_group = 5;
        request.prefix_tokens = units::Tokens(64);
        request.arrival_time_s = i == 0 ? 0.0 : 1e-12;
        scheduler.submit(std::move(request));
    }
    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
        EXPECT_LE(scheduler.kv_bytes_in_use(),
                  sched_config.kv_budget_bytes);
    }
    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.prefix_hits, 1u);
    EXPECT_EQ(max_active, 2u) << "sharing must let both be resident";
    EXPECT_EQ(stats.preemptions, 0u)
        << "a sharer that fits the budget must not be thrashed";
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
}

// ---- In-flight prefix sharing: promised blocks defer the head. ----

/** Greedy stream of @p prompt served alone: prefill, then steps. */
std::vector<int>
solo_stream(const Engine& engine, const std::vector<int>& prompt,
            std::size_t max_new)
{
    Session session = engine.create_session();
    const std::vector<float> logits = engine.prefill(session, prompt);
    int token = static_cast<int>(std::distance(
        logits.begin(),
        std::max_element(logits.begin(), logits.end())));
    std::vector<int> generated = {token};
    while (generated.size() < max_new) {
        token = engine.step(session, token).outputs[0].next_token;
        generated.push_back(token);
    }
    return generated;
}

/** @p document followed by @p suffix_len synthetic tokens. */
std::vector<int>
document_prompt(const std::vector<int>& document,
                std::size_t suffix_len, std::size_t vocab,
                std::uint32_t seed)
{
    std::vector<int> prompt = document;
    const std::vector<int> suffix =
        model::synthetic_tokens(suffix_len, vocab, seed);
    prompt.insert(prompt.end(), suffix.begin(), suffix.end());
    return prompt;
}

TEST(Scheduler, SameInstantBurstWaitsForTheDonorInsteadOfRecomputing)
{
    // Six requests on two 12-token documents (3 blocks at B=4), all
    // arriving at t=0.  The first request on each document donates;
    // the others find its blocks promised but not yet fed, wait for
    // them, and adopt the whole document -- so each document is
    // prefilled exactly once.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 811);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::size_t kDocTokens = 12;
    const std::size_t kSuffix = 3;
    const std::vector<std::vector<int>> documents = {
        model::synthetic_tokens(kDocTokens, config.vocab, 950),
        model::synthetic_tokens(kDocTokens, config.vocab, 951)};
    std::vector<std::vector<int>> prompts;
    for (std::size_t i = 0; i < 6; ++i) {
        prompts.push_back(document_prompt(
            documents[i % documents.size()], kSuffix, config.vocab,
            static_cast<std::uint32_t>(960 + i)));
    }
    const std::size_t kMaxNew = 5;

    const auto serve_burst = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(4);
        // One block per chunk: a donor needs three steps to make its
        // document resident, so followers really do find it promised.
        sched_config.prefill_chunk_tokens = units::Tokens(4);
        sched_config.max_batch = prompts.size();
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        std::vector<std::uint64_t> ids;
        for (const std::vector<int>& prompt : prompts) {
            Request request;
            request.prompt = prompt;
            request.max_new_tokens = units::Tokens(kMaxNew);
            ids.push_back(scheduler.submit(std::move(request)));
        }
        while (scheduler.step()) {
            EXPECT_EQ(scheduler.check_invariants(), "");
        }
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
        std::vector<std::vector<int>> tokens(prompts.size());
        for (FinishedRequest& f : scheduler.take_finished()) {
            const auto at = std::find(ids.begin(), ids.end(), f.id);
            tokens[static_cast<std::size_t>(at - ids.begin())] =
                std::move(f.tokens);
        }
        return std::make_pair(std::move(tokens), scheduler.stats());
    };

    const auto [tokens_off, stats_off] = serve_burst(false);
    const auto [tokens_on, stats_on] = serve_burst(true);
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        EXPECT_EQ(tokens_on[i], tokens_off[i])
            << "request " << i << " diverged under in-flight sharing";
        EXPECT_EQ(tokens_on[i].size(), kMaxNew);
    }
    EXPECT_EQ(stats_off.prefill_tokens,
              units::Tokens(prompts.size() * (kDocTokens + kSuffix)));
    // Each document's blocks once, plus every unshared tail.
    EXPECT_EQ(stats_on.prefill_tokens,
              units::Tokens(documents.size() * kDocTokens +
                            prompts.size() * kSuffix));
    EXPECT_EQ(stats_on.prefix_hits,
              prompts.size() - documents.size());
    EXPECT_EQ(stats_on.saved_prefill_tokens,
              units::Tokens((prompts.size() - documents.size()) *
                            kDocTokens));
}

TEST(Scheduler, DeferredFollowerRecomputesWhenTheDonorIsCancelled)
{
    // The follower waits on a donor that is still prefilling; the
    // donor is cancelled.  Its index entries go with it, so the
    // follower is admitted on the next step, computes the document
    // itself, and its stream matches a solo run.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 812);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<int> document =
        model::synthetic_tokens(16, config.vocab, 970);
    const std::vector<int> donor_prompt =
        document_prompt(document, 2, config.vocab, 971);
    const std::vector<int> follower_prompt =
        document_prompt(document, 2, config.vocab, 972);
    const std::size_t kMaxNew = 4;

    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.prefill_chunk_tokens = units::Tokens(4);
    sched_config.max_batch = 2;
    Scheduler scheduler(engine, sched_config);
    Request donor;
    donor.prompt = donor_prompt;
    donor.max_new_tokens = units::Tokens(kMaxNew);
    const std::uint64_t donor_id = scheduler.submit(std::move(donor));
    Request follower;
    follower.prompt = follower_prompt;
    follower.max_new_tokens = units::Tokens(kMaxNew);
    const std::uint64_t follower_id =
        scheduler.submit(std::move(follower));

    ASSERT_TRUE(scheduler.step());
    EXPECT_EQ(scheduler.active(), 1u);
    EXPECT_EQ(scheduler.queued(), 1u)
        << "the follower must wait for the donor's promised blocks";
    ASSERT_TRUE(scheduler.cancel(donor_id));
    EXPECT_EQ(scheduler.check_invariants(), "");
    while (scheduler.step()) {
        EXPECT_EQ(scheduler.check_invariants(), "");
    }

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.prefix_hits, 0u);
    EXPECT_EQ(stats.cancelled, 1u);
    // The donor fed one chunk; the follower fed its whole prompt.
    EXPECT_EQ(stats.prefill_tokens,
              units::Tokens(4 + follower_prompt.size()));
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    for (const FinishedRequest& f : scheduler.take_finished()) {
        if (f.id == follower_id) {
            EXPECT_EQ(f.tokens,
                      solo_stream(engine, follower_prompt, kMaxNew));
        }
    }
}

TEST(Scheduler, DeferredFollowerSurvivesTheDonorsPreemption)
{
    // Four high-priority residents decode under a tight budget while
    // a low-priority donor prefills a document a follower waits on
    // (the budget would admit the follower too: it waits only for
    // the promised blocks).  The residents' growth evicts the donor
    // mid-document, dropping its index entries and re-queueing it
    // ahead of the follower; nothing may deadlock, and every stream
    // stays bit-identical to solo serving.
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 813);
    const Engine engine(sim::make_mugi(64), transformer);

    const std::vector<int> document =
        model::synthetic_tokens(32, config.vocab, 980);
    std::vector<std::vector<int>> prompts;
    std::vector<std::size_t> max_new;
    for (std::uint32_t i = 0; i < 4; ++i) {  // Residents.
        prompts.push_back(
            model::synthetic_tokens(3, config.vocab, 984 + i));
        max_new.push_back(16);
    }
    for (std::uint32_t seed : {982u, 983u}) {  // Donor, follower.
        prompts.push_back(
            document_prompt(document, 2, config.vocab, seed));
        max_new.push_back(4);
    }

    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(4)).paged_bytes;
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(4);
    sched_config.prefill_chunk_tokens = units::Tokens(1);
    sched_config.watermark_blocks = units::Blocks(0);
    // Admission charges 1 block per resident and 9 each for the
    // donor and the follower: 22 admits all six at once.  Growing
    // one block per 4 steps each, the residents and the donor need
    // 25 blocks at step 17, when the donor has fed 4 of its
    // document's 8 blocks.
    sched_config.kv_budget_bytes = group * 22;
    sched_config.max_batch = prompts.size();
    Scheduler scheduler(engine, sched_config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        Request request;
        request.prompt = prompts[i];
        request.max_new_tokens = units::Tokens(max_new[i]);
        request.priority = i < 4 ? 1 : 0;
        ids.push_back(scheduler.submit(std::move(request)));
    }

    bool preempted_while_waiting = false;
    std::size_t steps = 0;
    while (scheduler.step()) {
        EXPECT_EQ(scheduler.check_invariants(), "");
        if (steps == 0) {
            EXPECT_EQ(scheduler.queued(), 1u)
                << "the follower must wait for the donor";
        }
        if (scheduler.preemptions() > 0 && scheduler.queued() == 2) {
            preempted_while_waiting = true;
        }
        ASSERT_LT(++steps, 1000u) << "deferral must not deadlock";
    }
    EXPECT_TRUE(preempted_while_waiting)
        << "the donor must be evicted while the follower waits";
    EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
    const std::vector<FinishedRequest> finished =
        scheduler.take_finished();
    ASSERT_EQ(finished.size(), prompts.size());
    for (const FinishedRequest& f : finished) {
        const auto idx = static_cast<std::size_t>(
            std::find(ids.begin(), ids.end(), f.id) - ids.begin());
        EXPECT_EQ(f.tokens,
                  solo_stream(engine, prompts[idx], max_new[idx]))
            << "request " << idx << " diverged";
    }
}

TEST(Scheduler, AnalyticSameInstantBurstChargesTheGroupOnce)
{
    // The analytic mirror of the burst: four prefix_group requests at
    // one instant.  Followers wait for the donor's promised chunks,
    // then adopt them -- the group's reservation is refcounted once
    // and the shared chunks are skipped.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const units::Bytes group = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(16)).paged_bytes;
    const std::size_t kRequests = 4;

    const auto serve_burst = [&](bool sharing) {
        SchedulerConfig sched_config;
        sched_config.kv_block_tokens = units::Tokens(16);
        sched_config.prefill_chunk_tokens = units::Tokens(16);
        sched_config.max_batch = kRequests;
        sched_config.prefix_caching = sharing;
        Scheduler scheduler(engine, sched_config);
        for (std::size_t i = 0; i < kRequests; ++i) {
            Request request;
            request.analytic_prompt_tokens = units::Tokens(80);
            request.max_new_tokens = units::Tokens(8);
            request.prefix_group = 91;
            request.prefix_tokens = units::Tokens(64);
            scheduler.submit(std::move(request));
        }
        units::Bytes most_resident{0};
        while (scheduler.step()) {
            EXPECT_EQ(scheduler.check_invariants(), "");
            if (scheduler.active() == kRequests) {
                most_resident = std::max(most_resident,
                                         scheduler.kv_bytes_in_use());
            }
        }
        EXPECT_EQ(scheduler.kv_bytes_in_use(), units::Bytes(0));
        return std::make_pair(scheduler.stats(), most_resident);
    };

    const auto [off, off_resident] = serve_burst(false);
    const auto [on, on_resident] = serve_burst(true);
    EXPECT_EQ(off.prefix_hits, 0u);
    EXPECT_EQ(on.prefix_hits, kRequests - 1);
    EXPECT_EQ(on.shared_blocks, units::Blocks((kRequests - 1) * 4));
    EXPECT_EQ(on.saved_prefill_tokens,
              units::Tokens((kRequests - 1) * 64));
    EXPECT_EQ(on.prefill_tokens +
                  units::Tokens((kRequests - 1) * 64),
              off.prefill_tokens);
    // All four resident at their final length (88 positions, 6
    // groups each): the 4 shared groups are charged once, not four
    // times.
    EXPECT_EQ(off_resident, group * (kRequests * 6));
    EXPECT_EQ(on_resident, group * (4 + kRequests * 2));
}

// ---- Stats bugfix sweep (regressions). ----

TEST(Scheduler, MeanTpotExcludesSingleTokenRequests)
{
    // tpot_s() is structurally 0 for generated <= 1; such requests
    // used to dilute mean_tpot_s toward zero.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request single;
    single.analytic_prompt_tokens = units::Tokens(16);
    single.max_new_tokens = units::Tokens(1);
    const std::uint64_t single_id = scheduler.submit(single);
    Request multi = single;
    multi.max_new_tokens = units::Tokens(6);
    scheduler.submit(multi);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& m =
        finished[0].id == single_id ? finished[1] : finished[0];
    ASSERT_GT(m.generated, units::Tokens(1));
    EXPECT_GT(m.tpot_s(), 0.0);
    const ServerStats stats = scheduler.stats();
    // The mean is exactly the multi-token request's TPOT: the
    // single-token request contributes neither sum nor divisor.
    EXPECT_DOUBLE_EQ(stats.mean_tpot_s, m.tpot_s());
}

TEST(Scheduler, ZeroGenerationRequestsAreExcludedFromTtft)
{
    // A max_new_tokens == 0 request emits no token; it used to stamp
    // a fake first-token time at prefill completion and pollute the
    // TTFT aggregates.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request normal;
    normal.analytic_prompt_tokens = units::Tokens(32);
    normal.max_new_tokens = units::Tokens(4);
    const std::uint64_t normal_id = scheduler.submit(normal);
    Request empty = normal;
    empty.max_new_tokens = units::Tokens(0);
    scheduler.submit(empty);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& n =
        finished[0].id == normal_id ? finished[0] : finished[1];
    const FinishedRequest& z =
        finished[0].id == normal_id ? finished[1] : finished[0];
    EXPECT_EQ(z.generated, units::Tokens(0));
    EXPECT_EQ(z.first_token_s, 0.0) << "no token, no milestone";
    EXPECT_EQ(z.ttft_s(), 0.0);
    EXPECT_GT(z.finished_s, 0.0) << "its prefill was real work";

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);  // Still counts as finished...
    EXPECT_DOUBLE_EQ(stats.mean_ttft_s, n.ttft_s());  // ...not TTFT.
    EXPECT_DOUBLE_EQ(stats.max_ttft_s, n.ttft_s());
}

TEST(Scheduler, PercentilesMatchASortThenRankReference)
{
    // stats() reads nearest-rank percentiles straight off samples
    // kept sorted on insert; they must equal sorting every finished
    // request's latency and ranking it, whatever order requests
    // finish in.  Staggered arrivals and mixed lengths make the
    // finish order differ from the latency order.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    SchedulerConfig sched_config;
    sched_config.max_batch = 4;
    sched_config.prefill_chunk_tokens = units::Tokens(32);
    Scheduler scheduler(engine, sched_config);
    for (std::size_t i = 0; i < 40; ++i) {
        Request request;
        request.analytic_prompt_tokens =
            units::Tokens(8 + (i * 37) % 120);
        request.max_new_tokens = units::Tokens(1 + (i * 11) % 13);
        request.arrival_time_s =
            1e-4 * static_cast<double>((i * 7) % 9);
        scheduler.submit(std::move(request));
    }

    const auto nearest_rank = [](std::vector<double> samples,
                                 double p) {
        if (samples.empty()) {
            return 0.0;
        }
        std::sort(samples.begin(), samples.end());
        const auto rank = static_cast<std::size_t>(std::ceil(
            p / 100.0 * static_cast<double>(samples.size())));
        return samples[std::max<std::size_t>(rank, 1) - 1];
    };
    std::vector<double> ttft;
    std::vector<double> tpot;
    bool out_of_order = false;
    for (bool more = true; more;) {
        more = scheduler.step();
        for (const FinishedRequest& f : scheduler.take_finished()) {
            if (f.generated > units::Tokens(0)) {
                out_of_order |=
                    !ttft.empty() && f.ttft_s() < ttft.back();
                ttft.push_back(f.ttft_s());
            }
            if (f.generated > units::Tokens(1)) {
                tpot.push_back(f.tpot_s());
            }
        }
        // Checked after every step, over the samples so far.
        const ServerStats s = scheduler.stats();
        EXPECT_EQ(s.p50_ttft_s, nearest_rank(ttft, 50.0));
        EXPECT_EQ(s.p95_ttft_s, nearest_rank(ttft, 95.0));
        EXPECT_EQ(s.p99_ttft_s, nearest_rank(ttft, 99.0));
        EXPECT_EQ(s.p50_tpot_s, nearest_rank(tpot, 50.0));
        EXPECT_EQ(s.p95_tpot_s, nearest_rank(tpot, 95.0));
        EXPECT_EQ(s.p99_tpot_s, nearest_rank(tpot, 99.0));
    }
    EXPECT_EQ(ttft.size(), 40u);
    EXPECT_TRUE(out_of_order)
        << "the trace must finish requests out of TTFT order";
}

TEST(Scheduler, WatermarkSizedToTheLargestResidentPrecision)
{
    // An INT4 admission beside a float resident must leave a
    // float-sized watermark free: the headroom exists to absorb the
    // *residents'* decode growth, and the largest resident grows in
    // float-sized blocks.
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    const units::Bytes group_f = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kFloat,
        units::Tokens(16)).paged_bytes;
    const units::Bytes group_i = sim::kv_footprint(
        config, units::Positions(1), quant::KvPrecision::kInt4,
        units::Tokens(16)).paged_bytes;
    ASSERT_GT(group_f, group_i);

    // Both requests reserve 2 groups (17 positions).  The budget
    // fits float-A + int4-B + an int4 watermark but NOT a float
    // watermark, so the fixed admission must hold B back while A is
    // resident.
    SchedulerConfig sched_config;
    sched_config.kv_block_tokens = units::Tokens(16);
    sched_config.kv_budget_bytes = units::Bytes(2 * group_f + 3 * group_i);
    sched_config.max_batch = 4;
    Scheduler scheduler(engine, sched_config);
    Request a;
    a.analytic_prompt_tokens = units::Tokens(16);
    a.max_new_tokens = units::Tokens(4);
    a.session.kv_precision = quant::KvPrecision::kFloat;
    scheduler.submit(std::move(a));
    Request b;
    b.analytic_prompt_tokens = units::Tokens(16);
    b.max_new_tokens = units::Tokens(4);
    b.session.kv_precision = quant::KvPrecision::kInt4;
    scheduler.submit(std::move(b));

    std::size_t max_active = 0;
    while (scheduler.step()) {
        max_active = std::max(max_active, scheduler.active());
    }
    EXPECT_EQ(max_active, 1u)
        << "B admitted beside A would eat A's float-sized headroom";
    EXPECT_EQ(scheduler.stats().finished, 2u);
}

TEST(Scheduler, EmptyPromptRetiresImmediatelyWithoutAsserts)
{
    // The assert-guarded branch in submit(): with asserts compiled
    // out (Release CI job), an empty functional prompt must retire
    // immediately instead of feeding token -1 into the model.
    if (support::kAssertsOn) {
        GTEST_SKIP() << "assert-guarded path; exercised by the "
                        "Release CI job";
    }
    const model::ModelConfig config =
        model::llama2_70b().scaled_for_eval(2, 32, 64);
    auto transformer =
        std::make_shared<model::TransformerModel>(config, 810);
    const Engine engine(sim::make_mugi(64), transformer);
    Scheduler scheduler(engine, {});

    Request empty;
    empty.max_new_tokens = units::Tokens(4);  // No prompt tokens at all.
    const std::uint64_t empty_id = scheduler.submit(std::move(empty));
    Request normal;
    normal.prompt = model::synthetic_tokens(5, config.vocab, 42);
    normal.max_new_tokens = units::Tokens(2);
    scheduler.submit(std::move(normal));

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& e =
        finished[0].id == empty_id ? finished[0] : finished[1];
    EXPECT_EQ(e.generated, units::Tokens(0));
    EXPECT_TRUE(e.tokens.empty());
    EXPECT_EQ(e.ttft_s(), 0.0);
    const FinishedRequest& n =
        finished[0].id == empty_id ? finished[1] : finished[0];
    EXPECT_EQ(n.generated, units::Tokens(2));
}

// ---- Arrivals, clock and stats. ----

TEST(Scheduler, StaggeredArrivalsRespectTheModeledClock)
{
    const model::ModelConfig config = model::llama2_7b();
    const Engine engine(sim::make_mugi(256), config);
    Scheduler scheduler(engine, {});

    Request early;
    early.analytic_prompt_tokens = units::Tokens(64);
    early.max_new_tokens = units::Tokens(8);
    scheduler.submit(early);

    Request late = early;
    late.arrival_time_s = 1.0e-3;  // Far beyond the first steps.
    scheduler.submit(late);

    const std::vector<FinishedRequest> finished = scheduler.run();
    ASSERT_EQ(finished.size(), 2u);
    const FinishedRequest& second =
        finished[0].id == 2 ? finished[0] : finished[1];
    EXPECT_GE(second.admitted_s, 1.0e-3);
    EXPECT_GE(second.arrival_s, 1.0e-3);
    EXPECT_GE(second.ttft_s(), 0.0);

    const ServerStats stats = scheduler.stats();
    EXPECT_EQ(stats.finished, 2u);
    EXPECT_GT(stats.mean_ttft_s, 0.0);
    EXPECT_GE(stats.max_ttft_s, stats.mean_ttft_s);
    EXPECT_GT(stats.mean_tpot_s, 0.0);
    EXPECT_GT(stats.horizon.tokens, 0.0);
    EXPECT_FALSE(std::isnan(stats.horizon.energy_per_token_j));
    EXPECT_GT(stats.horizon.energy_per_token_j, 0.0);
    // The horizon processed every prompt and generated token.
    EXPECT_DOUBLE_EQ(stats.horizon.tokens,
                     static_cast<double>((stats.prefill_tokens +
                                          stats.decode_tokens)
                                             .value()));
}

// ---- BatchPolicy: the Fig. 14 knee. ----

TEST(BatchPolicy, DerivesTheThroughputKnee)
{
    const BatchPolicy policy = BatchPolicy::derive(
        sim::make_mugi(256), model::llama2_7b(), 512, 32);
    ASSERT_FALSE(policy.sweep().empty());
    EXPECT_GE(policy.target_batch(), 1u);
    EXPECT_LE(policy.target_batch(), policy.max_batch());

    double best = 0.0;
    for (const BatchSweepPoint& point : policy.sweep()) {
        best = std::max(best, point.throughput_tokens_per_s);
    }
    // The target is the smallest batch within 10% of the best.
    for (const BatchSweepPoint& point : policy.sweep()) {
        if (point.batch == policy.target_batch()) {
            EXPECT_GE(point.throughput_tokens_per_s, 0.9 * best);
        } else if (point.batch < policy.target_batch()) {
            EXPECT_LT(point.throughput_tokens_per_s, 0.9 * best);
        }
    }
    // Mugi maps the batch across its 8 columns (Sec. 4.2): the knee
    // cannot sit past the first power of two to fill them.
    EXPECT_LE(policy.target_batch(), 8u);
}

TEST(BatchPolicy, EvaluateMatchesDirectWorkloadRun)
{
    const sim::DesignConfig design = sim::make_mugi(64);
    const model::ModelConfig models[] = {model::llama2_7b()};
    const BatchSweepPoint point =
        BatchPolicy::evaluate(design, models, 4, 256);
    const sim::PerfReport direct = sim::run_workload(
        design, model::build_decode_workload(models[0], 4, 256));
    EXPECT_NEAR(point.throughput_tokens_per_s,
                direct.throughput_tokens_per_s,
                1e-9 * direct.throughput_tokens_per_s);
    EXPECT_NEAR(point.energy_per_token_j, direct.energy_per_token_j,
                1e-9 * direct.energy_per_token_j);
}

}  // namespace
}  // namespace serve
}  // namespace mugi
