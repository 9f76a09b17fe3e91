#ifndef MUGI_SERVE_SCHEDULER_H_
#define MUGI_SERVE_SCHEDULER_H_

/**
 * @file
 * The request-lifecycle serving frontend: admission control, chunked
 * prefill, continuous batching and KV-memory management over
 * Engine::step.
 *
 * Callers submit() Requests and step() (or run()) the scheduler; it
 * owns everything in between:
 *
 *  - a quant::BlockPool sized to the KV budget: every admitted
 *    request's caches draw fixed-size blocks from it (functional
 *    serving), or the scheduler mirrors the modeled cache through
 *    byte reservations (analytic serving), so the pool's
 *    bytes_in_use is the exact device footprint either way;
 *  - an admission queue ordered by submission, gated on each
 *    request's modeled arrival time and on **block-level
 *    reservation**: a request is admitted when the blocks covering
 *    its prompt (plus a watermark of free blocks that keeps decode
 *    headroom) fit beside the blocks committed to resident requests
 *    -- not its full projected generation length, which is what lets
 *    a paged pool admit strictly more concurrent sessions than the
 *    old full-length projection (kept as
 *    AdmissionMode::kFullProjection for comparison).  Admission is
 *    FIFO (head-of-line blocking, no starvation);
 *  - **preemption**: when decode growth would run the pool dry, the
 *    lowest-priority running request (ties: latest admitted) is
 *    evicted -- its blocks freed immediately -- and re-queued at the
 *    front for recompute-style re-prefill through the existing
 *    chunked-prefill path (its prompt plus the tokens it had already
 *    generated are replayed, so its remaining output is bit-identical
 *    to an uncontended run);
 *  - **prefix caching**: a content-addressed index of the resident
 *    requests' prompt-block runs (chained hashes at block
 *    granularity, per KV precision).  When a new request's prompt
 *    prefix matches blocks a resident request has already computed,
 *    admission maps its session onto those physical blocks under
 *    pool refcounts (copy-on-write protected), charges only the
 *    unshared tail against the budget, and skips the shared blocks'
 *    prefill chunks entirely -- under Mugi's INT4-KVQ layout a hit
 *    saves both the recompute and the quantization pass.  A block an
 *    owner has registered but not yet fed is *promised*, not
 *    resident: when the lookup stops at a promised block, the queue
 *    head is deferred for the step (like a KV-budget miss, keeping
 *    FIFO) and admitted later with the full hit instead of
 *    recomputing the document.  The wait cannot deadlock: the owner
 *    is active, so it feeds a chunk every step, and an owner that is
 *    preempted, cancelled or retired drops its index entries, which
 *    ends the wait.  Analytic serving mirrors all of this: requests
 *    declaring a common Request::prefix_group share refcounted
 *    reservations and skip the shared chunks the same way.
 *    Preemption interacts through the refcounts: evicting one sharer
 *    never frees a block another sharer still reads;
 *  - chunked prefill: admitted prompts are fed at most
 *    prefill_chunk_tokens per iteration, interleaved with the decode
 *    batch in one Engine::step(StepPlan) whose mixed workload shares
 *    a single WOQ weight stream (vLLM/Sarathi-style chunked prefill);
 *  - continuous batching toward the BatchPolicy target derived from
 *    the Fig. 14 sweep: finished requests leave mid-flight and
 *    queued requests are admitted the same iteration.
 *
 * Chunked-prefill invariant: feeding a prompt chunk by chunk is
 * bit-identical to one Engine::prefill call, and the mixed step's
 * workload MACs equal the sum of the equivalent standalone chunk and
 * decode workloads -- so scheduling (including preemption) changes
 * *when* work happens, never its numerics or totals
 * (tests/serve/scheduler_test.cc).
 *
 * Time is the modeled clock: each iteration advances it by the mixed
 * step's modeled runtime, which is what the TTFT/TPOT/queue numbers
 * in ServerStats are measured in.
 *
 * Admission accounting is *unit-typed* (support/units.h): budgets and
 * reservations are units::Bytes, chunk sizes and prompt lengths
 * units::Tokens, block counts units::Blocks, and every
 * tokens-to-bytes crossing goes through the named conversion helpers
 * (blocks_for / bytes_for) -- the admission-path functions contain no
 * raw .value() unwraps, which tools/mugi_check.py rule R4 enforces.
 *
 * Thread-safety: externally serialized -- the scheduler is a
 * single-threaded control loop (submit/cancel/step/run from one
 * thread at a time).  serve::Server is the push-based front: it owns
 * the one thread that calls these members and feeds it submissions /
 * cancellations through a support::Channel, so callers never touch
 * the scheduler directly; the engine it drives and the block pool it
 * owns are the internally-synchronized pieces.
 * Every step ends with an invariant audit under
 * MUGI_AUDIT_INVARIANTS (support/audit.h): check_invariants()
 * recomputes reservation and prefix-refcount accounting from scratch
 * and any drift aborts.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "quant/block_allocator.h"
#include "serve/batch_policy.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/performance_model.h"

namespace mugi {
namespace serve {

/** How admission charges a request against the KV budget. */
enum class AdmissionMode {
    /**
     * Block-level reservation: charge the blocks covering the prompt
     * (plus the next decode append) and keep watermark_blocks free;
     * decode growth is handled by allocation on demand plus
     * preemption under pressure.
     */
    kPagedReservation,
    /**
     * Legacy conservative policy: charge the full projected
     * generation length (prompt + max_new_tokens, block-rounded) up
     * front.  Never preempts; admits fewer concurrent sessions.
     */
    kFullProjection,
};

/**
 * Which queued request the bounded admission queue sheds when it is
 * over SchedulerConfig::max_queued_requests.  Only *arrived*,
 * never-admitted requests are candidates: future trace arrivals are
 * not yet load, and preempted requests re-queued for re-prefill were
 * already admitted once (shedding them would throw away emitted
 * tokens and break the bit-identity contract).
 */
enum class ShedPolicy {
    /** Shed the most recently arrived candidate (LIFO kill: the
     *  oldest waiters keep their place, no starvation reordering). */
    kRejectNewest,
    /** Shed the lowest-priority candidate (ties: newest first) --
     *  the admission-side mirror of preemption's victim choice. */
    kRejectLowestPriority,
};

/** Scheduler knobs fixed at construction. */
struct SchedulerConfig {
    /**
     * KV-memory budget in bytes shared by all admitted requests (the
     * block pool's capacity); 0 = unbounded.  A request whose
     * reservation alone exceeds the budget is still admitted when it
     * can run alone (it could never run otherwise) -- the pool
     * overcommits for it.
     */
    units::Bytes kv_budget_bytes{0};
    /** Max prompt tokens fed per request per iteration. */
    units::Tokens prefill_chunk_tokens{256};
    /**
     * Concurrent-request target the continuous batch is steered
     * toward; 0 = derive via BatchPolicy from the engine's design
     * and model config.
     */
    std::size_t max_batch = 0;
    /** Context length used by the BatchPolicy derivation sweep. */
    std::size_t policy_context = 512;

    /** Admission policy against the KV budget. */
    AdmissionMode admission = AdmissionMode::kPagedReservation;
    /** KV positions per block of the shared pool. */
    units::Tokens kv_block_tokens =
        quant::BlockPool::kDefaultBlockTokens;
    /**
     * Blocks that must remain free after a paged admission -- decode
     * headroom that damps admit/preempt thrash, vLLM's watermark.
     * Sized at the *largest* block-group resident (or being
     * admitted), so a small-precision admission cannot eat the
     * headroom a float-precision resident needs to grow.
     */
    units::Blocks watermark_blocks{1};
    /**
     * Cross-request KV prefix caching (paged admission only): map a
     * new request's prompt onto blocks a resident request already
     * computed, charge admission only for the unshared tail, and
     * skip the shared blocks' prefill chunks.  Off reverts to
     * recompute-everything admission (the A/B baseline
     * bench/prefix_cache.cc measures against).
     */
    bool prefix_caching = true;

    /**
     * Bounded admission queue: when more than this many *arrived*,
     * never-admitted requests are waiting, the shed policy retires
     * the excess with FinishReason::kShed instead of letting the
     * queue grow without bound; 0 = unbounded (the pre-overload
     * behaviour).  Checked every scheduling iteration, before
     * admission, on the modeled clock.
     */
    std::size_t max_queued_requests = 0;
    /** Which candidate to shed when the queue is over its bound. */
    ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
    /**
     * Default maximum queue wait (modeled seconds) before a request
     * still awaiting admission is retired with
     * FinishReason::kAdmissionTimeout; 0 = no limit.
     * Request::admission_timeout_s overrides per request.  Distinct
     * from deadlines: this bounds only the arrival -> admission
     * window and never fires once the request is admitted.
     */
    double admission_timeout_s = 0.0;

    /**
     * Worker threads every mixed step fans its functional work
     * across (StepPlan::threads); 0 = serial.  Pooled steps are
     * bit-identical to serial ones, so this knob changes wall-clock
     * only -- never tokens, numerics, or the modeled clock.
     * kAutoThreads resolves at Scheduler construction to
     * hardware_concurrency() - 1 (one core left for the loop
     * thread), clamped to kMaxAutoThreads, and to 0 (serial) on a
     * single-core box.
     */
    std::size_t step_threads = 0;

    /** step_threads sentinel: size the pool from the hardware. */
    static constexpr std::size_t kAutoThreads =
        static_cast<std::size_t>(-1);
    /** Upper clamp of the kAutoThreads resolution. */
    static constexpr std::size_t kMaxAutoThreads = 16;
};

/**
 * Resolve a step_threads request: kAutoThreads becomes
 * hardware_concurrency() - 1 clamped to [0, kMaxAutoThreads] (0 --
 * serial -- when the hardware reports <= 1 or unknown); any other
 * value passes through unchanged.
 */
std::size_t resolve_step_threads(std::size_t requested);

/**
 * Parse a --threads flag value: "auto" (case-sensitive) yields
 * SchedulerConfig::kAutoThreads, anything else its integer value.
 */
std::size_t threads_flag(const char* text);

/** Serving-horizon report: accumulator totals + latency stats. */
struct ServerStats {
    /**
     * sim::PerfAccumulator total over every mixed step: cycles,
     * energy, tokens (prefill + decode) and recomputed rates --
     * energy_per_token_j here is the serving energy-per-token number.
     */
    sim::PerfReport horizon;
    std::size_t steps = 0;
    /** Modeled clock at the snapshot (Scheduler::now_s). */
    double now_s = 0.0;

    std::size_t submitted = 0;
    std::size_t finished = 0;
    std::size_t active = 0;  ///< Currently admitted.
    std::size_t queued = 0;  ///< Waiting for admission.

    /**
     * Decode-step tokens processed; with prefill_tokens this
     * accounts the horizon exactly: horizon.tokens ==
     * prefill_tokens + decode_tokens.  Re-prefill after a preemption
     * counts toward prefill_tokens (recompute is real work).
     */
    units::Tokens decode_tokens{0};
    units::Tokens prefill_tokens{0};  ///< Prompt tokens processed.
    /**
     * Tokens emitted to callers.  One token rides each completed
     * prefill (the chunk's final logits), so generated_tokens
     * exceeds decode_tokens by one per prefill completion -- once
     * per request plus once per re-prefill after a preemption
     * (replayed history itself is never re-emitted).
     */
    units::Tokens generated_tokens{0};

    units::Bytes kv_budget_bytes{0};
    /**
     * Exact block-pool footprint right now (allocated blocks plus
     * analytic reservations).  Zero once every request retired --
     * the "no leaked blocks" number bench/serve_load --check gates.
     */
    units::Bytes kv_bytes_in_use{0};
    /**
     * Largest exact block-pool footprint observed (allocated blocks
     * plus analytic reservations).
     */
    units::Bytes peak_kv_bytes{0};
    /** peak_kv_bytes / kv_budget_bytes (0 when unbounded). */
    double peak_pool_utilization = 0.0;
    /** Requests evicted under KV pressure and re-queued. */
    std::size_t preemptions = 0;
    /** Requests retired by cancel / non-draining shutdown. */
    std::size_t cancelled = 0;
    /** Requests retired because their deadline passed. */
    std::size_t expired = 0;
    /**
     * Requests load-shed before admission (bounded-queue policy in
     * the scheduler, plus -- in Server::stats() -- submissions the
     * server itself refused at the command channel).
     */
    std::size_t requests_shed = 0;
    /** Requests whose admission timeout expired while queued. */
    std::size_t admission_timeouts = 0;
    /**
     * Requests cancelled because their client could not keep up with
     * the token stream (HTTP write timeout / vanished connection).
     * Counted by the server front-end; always 0 at scheduler level.
     */
    std::size_t slow_client_cancels = 0;
    /**
     * Fires of the process-wide FaultInjector since it was armed
     * (support/fault.h); 0 when disarmed or compiled out.  Snapshot
     * taken by Server::stats(); always 0 at scheduler level.
     */
    std::size_t faults_injected = 0;
    /** Admissions whose prompt mapped onto resident prefix blocks. */
    std::size_t prefix_hits = 0;
    /**
     * Cumulative all-layer block groups adopted from a resident
     * request at admission (each counted once in the pool no matter
     * how many sharers hold it).
     */
    units::Blocks shared_blocks{0};
    /** Prompt tokens whose prefill was skipped by prefix sharing. */
    units::Tokens saved_prefill_tokens{0};
    std::size_t target_batch = 0;

    /** Steps that ran on the worker pool (step_threads > 0). */
    std::size_t pooled_steps = 0;
    /**
     * Mean per-step worker busy/idle fractions over pooled steps
     * (StepResult::WorkerStats) -- how much of the pool's capacity
     * the step partitioning actually kept fed.  Zero when every step
     * ran serially.
     */
    double mean_worker_busy = 0.0;
    double mean_worker_idle = 0.0;

    // Over finished requests, on the modeled clock.  TTFT aggregates
    // are over requests that emitted >= 1 token and TPOT over those
    // that emitted >= 2 -- a max_new_tokens == 0 request has no first
    // token and a single-token request has no inter-token gap, so
    // neither may dilute the means (they still count toward queue
    // stats and finished).
    double mean_queue_s = 0.0;
    double mean_ttft_s = 0.0;
    double max_ttft_s = 0.0;
    double mean_tpot_s = 0.0;

    // Latency *percentiles* over the same per-request samples the
    // means are computed from (exact nearest-rank over every
    // finished request, not a reservoir -- serving horizons here are
    // at most tens of thousands of requests).  Tail latency is the
    // serving number that matters: a mean TTFT hides the p99 queue
    // spike an arrival burst causes.  Surfaced in /metrics,
    // examples/serving and bench/serve_load's rate sweep.
    double p50_ttft_s = 0.0;
    double p95_ttft_s = 0.0;
    double p99_ttft_s = 0.0;
    double p50_tpot_s = 0.0;
    double p95_tpot_s = 0.0;
    double p99_tpot_s = 0.0;
};

/** Request-lifecycle scheduler over one Engine. */
class Scheduler {
  public:
    /** @p engine must outlive the scheduler. */
    explicit Scheduler(const Engine& engine,
                       const SchedulerConfig& config = {});

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /** Enqueue a request; returns the id FinishedRequest reports. */
    std::uint64_t submit(Request request);

    /**
     * Enqueue a request under a caller-chosen id (must be unique for
     * the scheduler's lifetime; serve::Server assigns ids on the
     * submitting thread so a handle exists before the loop thread
     * ever sees the request).  submit() is this with the next
     * sequential id.
     */
    std::uint64_t submit_with_id(Request request, std::uint64_t id);

    /**
     * Retire request @p id wherever it is in the lifecycle -- still
     * queued, mid-prefill, or decoding -- with
     * FinishReason::kCancelled.  Its KV blocks / reservations are
     * released immediately, exactly as a natural finish releases
     * them (shared prefix blocks survive while another resident
     * holds them), and the retirement is audited under
     * MUGI_AUDIT_INVARIANTS.  Tokens already emitted stand in the
     * FinishedRequest.  Returns false when the id is unknown or
     * already finished.  Like every other member, callable only from
     * the thread driving the scheduler.
     */
    bool cancel(std::uint64_t id);

    /**
     * Retire every queued and active request with @p reason (the
     * non-draining server shutdown path).  Returns how many were
     * retired.
     */
    std::size_t
    cancel_all(FinishReason reason = FinishReason::kShutdown);

    /**
     * One scheduling iteration: admit, preempt if the pool would run
     * dry, build the mixed StepPlan, Engine::step it, stream tokens,
     * retire finished requests.  Returns true while any request is
     * active or queued.
     */
    bool step();

    /** step() until drained; hand back every finished request. */
    std::vector<FinishedRequest> run();

    /** Finished requests since the last take (submission order). */
    std::vector<FinishedRequest> take_finished();

    ServerStats stats() const;

    /** Modeled clock: PerfAccumulator::elapsed_s + idle skips. */
    double now_s() const { return now_s_; }
    std::size_t queued() const { return queue_.size(); }
    std::size_t active() const { return active_.size(); }
    /** Exact KV block-pool bytes held by admitted requests. */
    units::Bytes kv_bytes_in_use() const;
    /** Requests evicted under KV pressure so far. */
    std::size_t preemptions() const { return preemptions_; }
    /** The shared block pool (admission + caches account here). */
    const quant::BlockPool& pool() const { return pool_; }
    const BatchPolicy& policy() const { return policy_; }

    /**
     * Recompute the scheduler's cross-structure accounting from
     * scratch and return a description of the first violation (empty
     * string: consistent).  Checks the pool's own invariants, that
     * every prefix-index entry names a resident owner holding that
     * key, that analytic prefix refcounts match a from-scratch
     * recount with pool reservations equal to the refcounted groups
     * plus every resident's private tail, and that functional
     * sessions' block tables account for every pool reference.
     * Available in every build type; step() runs it automatically
     * under MUGI_AUDIT_INVARIANTS.
     */
    [[nodiscard]] std::string check_invariants() const;

  private:
    struct ActiveRequest {
        std::uint64_t id = 0;
        Request request;
        Session session;
        /**
         * Tokens chunked prefill feeds (functional): the prompt,
         * plus -- after a preemption -- the tokens generated before
         * eviction, replayed to rebuild the KV cache bit-identically.
         */
        std::vector<int> feed{};
        /** Effective prompt length (analytic: prompt + replayed). */
        units::Tokens feed_tokens{0};
        units::Tokens prompt_fed{0};
        std::vector<int> tokens{};
        units::Tokens generated{0};
        int pending_token = -1;  ///< Next decode input.
        /** Pool bytes reserved for this analytic session's cache
         *  beyond any refcounted shared-prefix blocks. */
        units::Bytes analytic_reserved_bytes{0};
        /** Full projection charge (kFullProjection mode only). */
        units::Bytes projected_bytes{0};
        /**
         * Positions adopted from a resident request's KV blocks at
         * admission (prefix-cache hit); their prefill chunks were
         * skipped.
         */
        units::Tokens shared_prefix_tokens{0};
        /** Block groups those positions cover. */
        units::Blocks shared_prefix_blocks{0};
        /**
         * Chain keys of this request's shareable prompt-block runs
         * -- the prefix-index entries it owns while resident.
         */
        std::vector<std::uint64_t> prefix_keys{};
        /**
         * Leading prefix_keys this *analytic* request holds
         * refcounted reservations for (each key's block-group bytes
         * are charged to the pool exactly once across all sharers).
         */
        std::size_t analytic_refs_held = 0;
        std::uint64_t admission_seq = 0;
        std::size_t preempt_count = 0;
        double arrival_s = 0.0;
        double admitted_s = 0.0;
        double first_token_s = 0.0;
        bool done = false;

        bool
        prefill_done() const
        {
            return prompt_fed >= feed_tokens;
        }
    };

    struct QueuedRequest {
        std::uint64_t id = 0;
        Request request;
        /** max(arrival_time_s, clock at submit). */
        double arrival_s = 0.0;

        /**
         * Chain keys of the request's shareable prompt blocks,
         * computed once at submit (they depend only on the prompt /
         * prefix declaration and precision) and moved into the
         * ActiveRequest at admission; find_prefix_match walks them
         * on every admission attempt without re-hashing the prompt.
         */
        std::vector<std::uint64_t> prefix_keys;

        // Resume state carried across a preemption.
        bool resumed = false;
        std::vector<int> resume_tokens;
        units::Tokens resume_generated{0};
        double original_admitted_s = 0.0;
        double first_token_s = 0.0;
        std::size_t preempt_count = 0;
    };

    std::size_t
    target_batch() const
    {
        return config_.max_batch ? config_.max_batch
                                 : policy_.target_batch();
    }

    /** What a prefix-index lookup found for a queued request. */
    struct PrefixMatch {
        units::Tokens tokens{0};  ///< Block-aligned shared positions.
        units::Blocks blocks{0};  ///< Block groups those cover.
        /** active_ index of the resident donor (tokens > 0 only). */
        std::size_t donor = 0;
        /**
         * The walk stopped at a *promised* block: every
         * content-matching owner of the next key is still
         * prefilling it.  Admission defers the request instead of
         * recomputing what the owner is about to make resident.
         */
        bool pending = false;
    };

    /** Bytes of one all-layer block group at @p precision. */
    units::Bytes
    block_group_bytes(quant::KvPrecision precision) const;
    /** Blocks covering @p tokens at the pool's block geometry. */
    units::Blocks blocks_for(units::Tokens tokens) const;
    /** Prefix caching needs paged refcounts and the config knob. */
    bool prefix_caching_on() const;
    /**
     * Chain keys over @p request's shareable prompt-block runs, one
     * per depth (functional: hashes of the real token runs; analytic:
     * synthesized from prefix_group within prefix_tokens).  Empty
     * when the request has nothing shareable.
     */
    std::vector<std::uint64_t> prefix_keys_for(const Request& request)
        const;
    /**
     * Longest block-aligned prompt prefix of @p queued already
     * computed by a resident request at the same precision (always
     * leaving >= 1 token to feed, so the completing chunk's logits
     * still emit the first token); PrefixMatch::pending when the
     * next block is only promised by an owner still prefilling it.
     */
    PrefixMatch find_prefix_match(const QueuedRequest& queued) const;
    /** Publish @p req's prompt blocks in the prefix index. */
    void register_prefix_owner(ActiveRequest& req);
    /** Remove @p req's prefix-index entries (retire / preempt). */
    void deregister_prefix_owner(const ActiveRequest& req);
    /**
     * Take refcounted reservations on the first @p blocks of an
     * analytic request's prefix keys (reserve-once semantics); both
     * admission (adopted blocks must be resident *before* the next
     * pressure check) and the per-step reservation sync call this.
     */
    void acquire_analytic_prefix_refs(ActiveRequest& req,
                                      units::Blocks blocks);
    /** Drop an analytic request's refcounted prefix reservations. */
    void release_analytic_prefix_refs(ActiveRequest& req);
    /**
     * Bytes admission must charge for @p queued (mode-dependent);
     * a prefix-cache hit charges only the unshared tail.
     */
    units::Bytes admission_bytes(const QueuedRequest& queued,
                                 units::Blocks shared_blocks) const;
    /** Watermark headroom at the largest resident block group. */
    units::Bytes watermark_bytes(quant::KvPrecision head_precision)
        const;
    /** Pool bytes @p req's blocks / reservations occupy today. */
    units::Bytes resident_bytes(const ActiveRequest& req) const;
    /** Bytes @p req still needs to cover @p tokens positions, beyond
     *  resident_bytes (shared blocks therefore counted once). */
    units::Bytes growth_slack_bytes(const ActiveRequest& req,
                                    units::Tokens tokens) const;
    units::Bytes committed_total() const;
    /** KV positions @p req will append this iteration. */
    units::Tokens step_append_tokens(const ActiveRequest& req) const;
    /** Evict active requests until this iteration's appends fit. */
    void preempt_for_pressure();
    /** Evict active_[index]: free its blocks, re-queue in front. */
    void preempt(std::size_t index);
    /**
     * Retire active_[index] with @p reason right now: finish it,
     * drop its prefix-index entries and analytic reservations, and
     * erase it (its session's destructor releases the KV blocks) --
     * the cancel/deadline twin of the end-of-step retire path.
     */
    void retire_active(std::size_t index, FinishReason reason);
    /** Retire a (still-)queued request with @p reason. */
    void finish_queued(QueuedRequest&& queued, FinishReason reason);
    /** Retire queued+active requests whose deadline_s passed. */
    void expire_deadlines();
    /**
     * Bounded-queue sweep: while more than max_queued_requests
     * arrived, never-admitted requests wait, retire the shed
     * policy's pick with FinishReason::kShed.  No-op when
     * max_queued_requests == 0.
     */
    void shed_for_capacity();
    /** Retire queued requests whose admission timeout expired. */
    void expire_admission_timeouts();
    /** Fold @p f into the latency aggregates and finished list. */
    void record_finished(FinishedRequest f);
    /** Grow the pool reservation mirroring an analytic cache. */
    void sync_analytic_reservation(ActiveRequest& req);
    void admit_arrivals();
    /** Emit one generated token; true when req is finished. */
    bool emit_token(ActiveRequest& req, int token);
    void finish(ActiveRequest& req, FinishReason reason);

    const Engine& engine_;
    SchedulerConfig config_;
    BatchPolicy policy_;
    bool functional_ = false;

    quant::BlockPool pool_;
    std::deque<QueuedRequest> queue_;
    std::vector<ActiveRequest> active_;
    std::vector<FinishedRequest> finished_;

    /**
     * Prefix index: chain key of a prompt-block run -> ids of the
     * resident requests whose prompts contain that run (entries live
     * exactly as long as their owner is resident).
     */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        prefix_index_;
    /**
     * Analytic mirror of block refcounts: chain key -> number of
     * resident analytic sharers; the block-group bytes behind a key
     * are reserved when the count rises from 0 and unreserved when
     * it returns to 0, so shared reservations are counted once.
     */
    std::unordered_map<std::uint64_t, std::size_t>
        analytic_prefix_refs_;

    sim::PerfAccumulator horizon_;
    /** Clock: horizon_.elapsed_s() + idle fast-forward skips. */
    double now_s_ = 0.0;
    double idle_s_ = 0.0;

    // Cumulative counters (survive take_finished()).
    std::size_t submitted_ = 0;
    std::size_t finished_count_ = 0;
    units::Tokens decode_tokens_{0};
    units::Tokens prefill_tokens_{0};
    units::Tokens generated_tokens_{0};
    std::size_t preemptions_ = 0;
    std::size_t cancelled_ = 0;
    std::size_t expired_ = 0;
    std::size_t requests_shed_ = 0;
    std::size_t admission_timeouts_ = 0;
    std::size_t prefix_hits_ = 0;
    units::Blocks shared_blocks_{0};
    units::Tokens saved_prefill_tokens_{0};
    std::uint64_t admission_seq_ = 0;
    double sum_queue_s_ = 0.0;
    double sum_ttft_s_ = 0.0;
    double max_ttft_s_ = 0.0;
    double sum_tpot_s_ = 0.0;
    /** Pooled-step worker-utilization sums (stats() divides). */
    std::size_t pooled_steps_ = 0;
    double sum_worker_busy_ = 0.0;
    /** Finished requests that emitted >= 1 token (TTFT divisor). */
    std::size_t ttft_count_ = 0;
    /** Finished requests that emitted >= 2 tokens (TPOT divisor). */
    std::size_t tpot_count_ = 0;
    /** Per-request latency samples behind the stats() percentiles
     *  (same inclusion rules as the ttft/tpot counts above), kept
     *  ascending on insert so stats() ranks them without a sort. */
    std::vector<double> ttft_samples_;
    std::vector<double> tpot_samples_;
};

}  // namespace serve
}  // namespace mugi

#endif  // MUGI_SERVE_SCHEDULER_H_
