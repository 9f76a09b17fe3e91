#include "serve/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "quant/kv_cache.h"
#include "support/audit.h"
#include "support/fault.h"

namespace mugi {
namespace serve {
namespace {

/** FNV-1a over one 64-bit value, little-endian byte order. */
std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/**
 * Exact nearest-rank percentile over an ascending-sorted sample set
 * (rank = ceil(p/100 * N), 1-based); 0 when there are no samples.
 */
double
nearest_rank(const std::vector<double>& sorted, double p)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(std::ceil(
        p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Insert @p value into ascending @p sorted, keeping it ascending. */
void
insert_sorted(std::vector<double>& sorted, double value)
{
    sorted.insert(
        std::upper_bound(sorted.begin(), sorted.end(), value), value);
}

}  // namespace

const char*
finish_reason_name(FinishReason reason)
{
    switch (reason) {
      case FinishReason::kMaxTokens:
        return "max_tokens";
      case FinishReason::kStopToken:
        return "stop_token";
      case FinishReason::kCancelled:
        return "cancelled";
      case FinishReason::kDeadline:
        return "deadline";
      case FinishReason::kShutdown:
        return "shutdown";
      case FinishReason::kShed:
        return "shed";
      case FinishReason::kAdmissionTimeout:
        return "admission_timeout";
    }
    return "?";
}

std::size_t
resolve_step_threads(std::size_t requested)
{
    if (requested != SchedulerConfig::kAutoThreads) {
        return requested;
    }
    const unsigned hc = std::thread::hardware_concurrency();
    if (hc <= 1) {
        return 0;  // Single-core or unknown: stay serial.
    }
    // Leave one core for the thread driving the loop.
    return std::min<std::size_t>(hc - 1,
                                 SchedulerConfig::kMaxAutoThreads);
}

std::size_t
threads_flag(const char* text)
{
    if (std::strcmp(text, "auto") == 0) {
        return SchedulerConfig::kAutoThreads;
    }
    return static_cast<std::size_t>(std::strtoull(text, nullptr, 10));
}

Scheduler::Scheduler(const Engine& engine,
                     const SchedulerConfig& config)
    : engine_(engine), config_(config),
      functional_(engine.has_model()),
      pool_(config.kv_budget_bytes, config.kv_block_tokens)
{
    // The assert is the contract, exactly as in
    // Engine::create_session: a model (config) is required.
    assert(engine.model_config().has_value() &&
           "scheduling needs a model (config) at engine build");
    if (config_.max_batch == 0) {
        policy_ = BatchPolicy::derive(engine.design(),
                                      *engine.model_config(),
                                      config_.policy_context);
    }
    config_.step_threads = resolve_step_threads(config.step_threads);
}

std::uint64_t
Scheduler::submit(Request request)
{
    // Auto ids continue the submission count, which keeps them at
    // 1..N for in-process callers (serve::Server always chooses its
    // own ids through submit_with_id instead).
    return submit_with_id(std::move(request), submitted_ + 1);
}

std::uint64_t
Scheduler::submit_with_id(Request request, std::uint64_t id)
{
    assert((!functional_ || !request.prompt.empty()) &&
           "functional requests need a non-empty prompt");
    assert(request.session.initial_context == units::Tokens(0) &&
           "context is built by the scheduler's chunked prefill");
    request.session.initial_context = units::Tokens(0);
    ++submitted_;
    const double arrival =
        std::max(request.arrival_time_s, now_s_);
    if (functional_ && request.prompt.empty()) {
        // There is nothing to decode from: retire the request
        // immediately instead of feeding token -1 into the model
        // (the assert above catches this in debug builds).  All
        // milestones collapse onto the arrival instant, so queue /
        // TTFT / TPOT are zero and the stats() means stay exact.
        FinishedRequest f;
        f.id = id;
        f.reason = FinishReason::kMaxTokens;
        f.arrival_s = arrival;
        f.admitted_s = arrival;
        // No token was ever emitted, so there is no first-token
        // milestone; ttft_s() reports 0 and the stats() TTFT
        // aggregates exclude the request.
        f.finished_s = arrival;
        record_finished(std::move(f));
        return id;
    }
    QueuedRequest queued;
    queued.id = id;
    queued.arrival_s = arrival;
    queued.request = std::move(request);
    if (prefix_caching_on()) {
        // Hash the shareable prompt blocks exactly once; admission
        // attempts (there may be many while the head waits on the
        // budget) only walk the cached chain.
        queued.prefix_keys = prefix_keys_for(queued.request);
    }
    queue_.push_back(std::move(queued));
    return id;
}

units::Bytes
Scheduler::block_group_bytes(quant::KvPrecision precision) const
{
    const model::ModelConfig& c = *engine_.model_config();
    // One block's bytes (block_tokens x per-position cost), across
    // every layer's cache.
    return units::bytes_for(config_.kv_block_tokens,
                            quant::KvCache::bytes_per_position(
                                c.num_kv_heads, c.head_dim(),
                                precision)) *
           c.num_layers;
}

units::Blocks
Scheduler::blocks_for(units::Tokens tokens) const
{
    return units::blocks_for(tokens, config_.kv_block_tokens);
}

bool
Scheduler::prefix_caching_on() const
{
    return config_.prefix_caching &&
           config_.admission == AdmissionMode::kPagedReservation;
}

std::vector<std::uint64_t>
Scheduler::prefix_keys_for(const Request& request) const
{
    const std::size_t bt = config_.kv_block_tokens.value();
    std::size_t region = request.prompt_tokens().value();
    if (!functional_) {
        if (request.prefix_group == 0) {
            return {};  // Nothing declared shareable.
        }
        region = std::min(region, request.prefix_tokens.value());
    }
    const std::size_t depth = region / bt;
    std::vector<std::uint64_t> keys;
    keys.reserve(depth);
    // Seed with the precision (and, analytically, the group id):
    // blocks only match between caches of identical layout.
    std::uint64_t h = fnv1a64(
        kFnvOffset,
        static_cast<std::uint64_t>(request.session.kv_precision));
    if (!functional_) {
        h = fnv1a64(h, request.prefix_group);
    }
    for (std::size_t b = 0; b < depth; ++b) {
        if (functional_) {
            for (std::size_t t = b * bt; t < (b + 1) * bt; ++t) {
                h = fnv1a64(h, static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(
                                       request.prompt[t])));
            }
        } else {
            h = fnv1a64(h, b);
        }
        keys.push_back(h);
    }
    return keys;
}

Scheduler::PrefixMatch
Scheduler::find_prefix_match(const QueuedRequest& queued) const
{
    PrefixMatch match;
    if (!prefix_caching_on()) {
        return match;
    }
    const std::size_t bt = config_.kv_block_tokens.value();
    const quant::KvPrecision precision =
        queued.request.session.kv_precision;
    const std::size_t prompt_len =
        queued.request.prompt_tokens().value();
    const std::size_t feed =
        prompt_len + queued.resume_generated.value();
    if (feed == 0) {
        return match;
    }
    const std::vector<std::uint64_t>& keys = queued.prefix_keys;
    // Never share the whole feed: the chunk completing prefill must
    // feed >= 1 real token so its logits emit the first token.
    const std::size_t cap =
        std::min(keys.size(), std::min(prompt_len, feed - 1) / bt);
    for (std::size_t b = 1; b <= cap; ++b) {
        const auto it = prefix_index_.find(keys[b - 1]);
        if (it == prefix_index_.end()) {
            break;  // Chain property: deeper runs cannot match.
        }
        bool found = false;
        bool promised = false;
        for (const std::uint64_t owner_id : it->second) {
            for (std::size_t i = 0; i < active_.size(); ++i) {
                const ActiveRequest& donor = active_[i];
                if (donor.id != owner_id ||
                    donor.session.kv_precision() != precision) {
                    continue;
                }
                if (functional_ &&
                    (donor.request.prompt.size() < b * bt ||
                     !std::equal(queued.request.prompt.begin(),
                                 queued.request.prompt.begin() +
                                     static_cast<std::ptrdiff_t>(b *
                                                                 bt),
                                 donor.request.prompt.begin()))) {
                    continue;  // Hash collision: verify content.
                }
                // Shareable only once resident -- fed (or itself
                // adopted).  An owner still prefilling the block has
                // merely promised it.
                if (donor.prompt_fed.value() < b * bt) {
                    promised = true;
                    continue;
                }
                match.tokens = units::Tokens(b * bt);
                match.blocks = units::Blocks(b);
                match.donor = i;
                found = true;
                break;
            }
            if (found) {
                break;
            }
        }
        if (!found) {
            match.pending = promised;
            break;  // No deeper donor can exist (prefix property).
        }
    }
    return match;
}

void
Scheduler::register_prefix_owner(ActiveRequest& req)
{
    // req.prefix_keys were moved over from the queue entry (hashed
    // once at submit).
    for (const std::uint64_t key : req.prefix_keys) {
        prefix_index_[key].push_back(req.id);
    }
}

void
Scheduler::deregister_prefix_owner(const ActiveRequest& req)
{
    for (const std::uint64_t key : req.prefix_keys) {
        const auto it = prefix_index_.find(key);
        if (it == prefix_index_.end()) {
            continue;
        }
        auto& owners = it->second;
        owners.erase(
            std::remove(owners.begin(), owners.end(), req.id),
            owners.end());
        if (owners.empty()) {
            prefix_index_.erase(it);
        }
    }
}

void
Scheduler::acquire_analytic_prefix_refs(ActiveRequest& req,
                                        units::Blocks blocks)
{
    assert(blocks.value() <= req.prefix_keys.size());
    const units::Bytes group =
        block_group_bytes(req.session.kv_precision());
    while (req.analytic_refs_held < blocks.value()) {
        std::size_t& refs =
            analytic_prefix_refs_[req.prefix_keys
                                      [req.analytic_refs_held]];
        if (refs == 0) {
            // First sharer to cover the block reserves its bytes;
            // later sharers just take a reference.
            pool_.reserve(group);
        }
        ++refs;
        ++req.analytic_refs_held;
    }
}

void
Scheduler::release_analytic_prefix_refs(ActiveRequest& req)
{
    const units::Bytes group =
        block_group_bytes(req.session.kv_precision());
    for (std::size_t i = 0; i < req.analytic_refs_held; ++i) {
        const auto it =
            analytic_prefix_refs_.find(req.prefix_keys[i]);
        assert(it != analytic_prefix_refs_.end() && it->second > 0);
        if (it == analytic_prefix_refs_.end()) {
            continue;  // Unreachable; keeps NDEBUG builds safe.
        }
        if (--it->second == 0) {
            // Last sharer out: the mirrored block leaves the pool
            // exactly once, like a physical refcount reaching zero.
            analytic_prefix_refs_.erase(it);
            pool_.unreserve(group);
        }
    }
    req.analytic_refs_held = 0;
}

units::Bytes
Scheduler::admission_bytes(const QueuedRequest& queued,
                           units::Blocks shared_blocks) const
{
    const quant::KvPrecision precision =
        queued.request.session.kv_precision;
    if (config_.admission == AdmissionMode::kFullProjection) {
        return units::bytes_for(
            blocks_for(queued.request.prompt_tokens() +
                       queued.request.max_new_tokens),
            block_group_bytes(precision));
    }
    // Paged reservation: the blocks covering the (possibly resumed)
    // prompt plus the first decode append -- growth beyond that is
    // allocated on demand and defended by preemption.  Blocks a
    // prefix-cache hit maps onto resident storage are already
    // charged there; admission pays only the unshared tail.
    const units::Tokens feed =
        queued.request.prompt_tokens() + queued.resume_generated;
    const units::Blocks blocks = blocks_for(feed + units::Tokens(1));
    assert(shared_blocks <= blocks);
    return units::bytes_for(blocks - shared_blocks,
                            block_group_bytes(precision));
}

units::Bytes
Scheduler::watermark_bytes(quant::KvPrecision head_precision) const
{
    if (config_.admission != AdmissionMode::kPagedReservation) {
        return units::Bytes(0);
    }
    // Headroom at the *largest* resident block group: decode growth
    // of a float-precision resident is not covered by an INT4-sized
    // watermark.
    units::Bytes group = block_group_bytes(head_precision);
    for (const ActiveRequest& a : active_) {
        group = std::max(group,
                         block_group_bytes(a.session.kv_precision()));
    }
    return units::bytes_for(config_.watermark_blocks, group);
}

units::Bytes
Scheduler::resident_bytes(const ActiveRequest& req) const
{
    if (functional_) {
        // Exact block bytes the session's caches hold -- including
        // blocks shared with other sessions (the pool counts each
        // physical block once; growth_slack_bytes subtracts this
        // same quantity, so the two views stay consistent).
        return req.session.kv_bytes();
    }
    return req.analytic_reserved_bytes +
           units::bytes_for(
               units::Blocks(req.analytic_refs_held),
               block_group_bytes(req.session.kv_precision()));
}

units::Bytes
Scheduler::growth_slack_bytes(const ActiveRequest& req,
                              units::Tokens tokens) const
{
    const units::Bytes target = units::bytes_for(
        blocks_for(tokens),
        block_group_bytes(req.session.kv_precision()));
    const units::Bytes resident = resident_bytes(req);
    return target > resident ? target - resident : units::Bytes(0);
}

units::Bytes
Scheduler::committed_total() const
{
    if (config_.admission == AdmissionMode::kFullProjection) {
        units::Bytes total{0};
        for (const ActiveRequest& a : active_) {
            total += a.projected_bytes;
        }
        return total;
    }
    // Paged: the pool's exact footprint (physical blocks + analytic
    // reservations, shared blocks counted once) plus each request's
    // growth to cover its feed and next decode append.
    units::Bytes total = pool_.bytes_in_use();
    for (const ActiveRequest& a : active_) {
        total += growth_slack_bytes(
            a, std::max(a.feed_tokens,
                        units::tokens_for(a.session.position())) +
                   units::Tokens(1));
    }
    return total;
}

units::Bytes
Scheduler::kv_bytes_in_use() const
{
    return pool_.bytes_in_use();
}

units::Tokens
Scheduler::step_append_tokens(const ActiveRequest& req) const
{
    if (req.prefill_done()) {
        return units::Tokens(1);  // One decode append per layer cache.
    }
    const units::Tokens remaining = req.feed_tokens - req.prompt_fed;
    return std::min(config_.prefill_chunk_tokens == units::Tokens(0)
                        ? remaining
                        : config_.prefill_chunk_tokens,
                    remaining);
}

void
Scheduler::preempt(std::size_t index)
{
    ActiveRequest victim = std::move(active_[index]);
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(index));
    ++preemptions_;
    deregister_prefix_owner(victim);
    if (!functional_) {
        release_analytic_prefix_refs(victim);
        pool_.unreserve(victim.analytic_reserved_bytes);
    }
    QueuedRequest q;
    q.id = victim.id;
    q.request = std::move(victim.request);
    q.arrival_s = victim.arrival_s;
    q.resumed = true;
    q.original_admitted_s = victim.admitted_s;
    q.resume_tokens = std::move(victim.tokens);
    q.resume_generated = victim.generated;
    q.first_token_s = victim.first_token_s;
    q.preempt_count = victim.preempt_count + 1;
    // The chain keys depend only on the prompt / prefix declaration
    // and precision: carry them back instead of re-hashing.
    q.prefix_keys = std::move(victim.prefix_keys);
    // Front of the queue: the victim was admitted before anything
    // still waiting, and FIFO admission keeps it first in line.
    queue_.push_front(std::move(q));
    // victim.session dies here: its caches drop their block
    // references, which is the point of preemption.  A block another
    // request shares survives (its refcount stays > 0) -- one
    // owner's eviction never frees a sharer's storage.
}

void
Scheduler::preempt_for_pressure()
{
    if (config_.kv_budget_bytes == units::Bytes(0)) {
        return;
    }
    // Evict until the blocks this iteration's appends need fit the
    // budget; a single resident request may overcommit (it could
    // never run otherwise).  The need is pool-exact: current bytes
    // (shared blocks counted once) plus each request's growth to
    // cover its appends, so sharing defers preemption exactly as
    // far as the physical savings allow.
    while (active_.size() > 1) {
        units::Bytes needed = pool_.bytes_in_use();
        for (const ActiveRequest& a : active_) {
            needed += growth_slack_bytes(
                a, units::tokens_for(a.session.position()) +
                       step_append_tokens(a));
        }
        if (needed <= config_.kv_budget_bytes) {
            return;
        }
        // Victim: lowest priority; ties evict the latest admitted.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < active_.size(); ++i) {
            const bool lower =
                active_[i].request.priority <
                    active_[victim].request.priority ||
                (active_[i].request.priority ==
                     active_[victim].request.priority &&
                 active_[i].admission_seq >
                     active_[victim].admission_seq);
            if (lower) {
                victim = i;
            }
        }
        preempt(victim);
    }
}

void
Scheduler::sync_analytic_reservation(ActiveRequest& req)
{
    if (functional_) {
        return;  // Functional caches allocate their own blocks.
    }
    // Shared-prefix blocks the position now covers go through the
    // refcount map (charged once across sharers).
    acquire_analytic_prefix_refs(
        req, std::min(units::Blocks(req.prefix_keys.size()),
                      units::full_blocks_for(
                          units::tokens_for(req.session.position()),
                          config_.kv_block_tokens)));
    // The private tail (everything past the refcounted prefix).
    const units::Bytes target = units::bytes_for(
        blocks_for(units::tokens_for(req.session.position())) -
            units::Blocks(req.analytic_refs_held),
        block_group_bytes(req.session.kv_precision()));
    if (target > req.analytic_reserved_bytes) {
        pool_.reserve(target - req.analytic_reserved_bytes);
        req.analytic_reserved_bytes = target;
    }
}

void
Scheduler::admit_arrivals()
{
    // FIFO admission: the queue head blocks everything behind it, so
    // an expensive request cannot be starved by a stream of cheap
    // later ones.  A preempted request re-enters at the head.
    while (!queue_.empty() && active_.size() < target_batch()) {
        QueuedRequest& head = queue_.front();
        if (head.arrival_s > now_s_) {
            break;  // Not arrived yet on the modeled clock.
        }
        // Chaos seam: a fired "block_pool.allocate" defers this
        // iteration's admissions, exactly as a transiently exhausted
        // pool would.  Deferral delays work but never changes which
        // tokens come out, so the chaos bench's bit-identity gate
        // still holds over it.
        if (MUGI_FAULT_POINT("block_pool.allocate")) {
            break;
        }
        // Prefix-cache lookup first: a hit shrinks the admission
        // charge to the unshared tail.
        const PrefixMatch match = find_prefix_match(head);
        if (match.pending) {
            // An active owner is still prefilling the next shared
            // block: wait for it (FIFO, like a budget miss) rather
            // than recompute it.  The owner feeds a chunk every step,
            // and leaving the index (preempt / cancel / retire) ends
            // the wait, so this cannot deadlock.
            break;
        }
        const units::Bytes needed = admission_bytes(head, match.blocks);
        if (config_.kv_budget_bytes != units::Bytes(0)) {
            const units::Bytes watermark =
                watermark_bytes(head.request.session.kv_precision);
            if (committed_total() + needed + watermark >
                config_.kv_budget_bytes) {
                // Would overcommit the KV budget.  The only
                // exception: a request whose reservation alone (plus
                // the headroom it would need) exceeds the budget can
                // never pass this check, so it is admitted when the
                // scheduler is otherwise empty -- it could never run
                // at all otherwise, and a single resident request is
                // allowed to overcommit the advisory pool.
                const bool oversized_alone =
                    needed + watermark > config_.kv_budget_bytes;
                if (!(active_.empty() && oversized_alone)) {
                    break;
                }
            }
        }
        SessionOptions options = head.request.session;
        options.kv_pool = &pool_;
        ActiveRequest a{.id = head.id,
                        .request = std::move(head.request),
                        .session = engine_.create_session(options)};
        a.tokens = std::move(head.resume_tokens);
        a.generated = head.resume_generated;
        if (functional_) {
            a.feed = a.request.prompt;
            a.feed.insert(a.feed.end(), a.tokens.begin(),
                          a.tokens.end());
            a.feed_tokens = units::Tokens(a.feed.size());
        } else {
            a.feed_tokens =
                a.request.prompt_tokens() + a.generated;
        }
        a.prefix_keys = std::move(head.prefix_keys);
        if (match.tokens > units::Tokens(0)) {
            // Map the shared prompt prefix onto the donor's resident
            // blocks and skip its prefill chunks: the tokens are
            // already computed (and, under KVQ, already quantized).
            if (functional_) {
                a.session.adopt_kv_prefix(
                    active_[match.donor].session,
                    units::positions_for(match.tokens));
            } else {
                engine_.advance_context(a.session, match.tokens);
                // Take the shared references *now*: the adopted
                // blocks must count as resident before this step's
                // pressure check, or the sharer's full growth slack
                // would preempt-thrash it straight back out.
                acquire_analytic_prefix_refs(a, match.blocks);
            }
            a.prompt_fed = match.tokens;
            a.shared_prefix_tokens = match.tokens;
            a.shared_prefix_blocks = match.blocks;
            ++prefix_hits_;
            shared_blocks_ += match.blocks;
            saved_prefill_tokens_ += match.tokens;
        }
        if (config_.admission == AdmissionMode::kFullProjection) {
            a.projected_bytes = needed;
        }
        a.admission_seq = ++admission_seq_;
        a.preempt_count = head.preempt_count;
        a.arrival_s = head.arrival_s;
        a.admitted_s =
            head.resumed ? head.original_admitted_s : now_s_;
        a.first_token_s = head.first_token_s;
        queue_.pop_front();
        register_prefix_owner(a);
        active_.push_back(std::move(a));
    }
}

bool
Scheduler::emit_token(ActiveRequest& req, int token)
{
    if (functional_) {
        req.tokens.push_back(token);
    }
    ++req.generated;
    ++generated_tokens_;
    if (req.request.on_token) {
        req.request.on_token(req.id, req.generated.value() - 1, token);
    }
    req.pending_token = token;
    if (functional_ && req.request.stop_token &&
        token == *req.request.stop_token) {
        finish(req, FinishReason::kStopToken);
        return true;
    }
    if (req.generated >= req.request.max_new_tokens) {
        finish(req, FinishReason::kMaxTokens);
        return true;
    }
    return false;
}

void
Scheduler::finish(ActiveRequest& req, FinishReason reason)
{
    FinishedRequest f;
    f.id = req.id;
    f.reason = reason;
    f.tokens = std::move(req.tokens);
    f.prompt_tokens = req.request.prompt_tokens();
    f.generated = req.generated;
    f.preemptions = req.preempt_count;
    f.arrival_s = req.arrival_s;
    f.admitted_s = req.admitted_s;
    f.first_token_s = req.first_token_s;
    f.finished_s = now_s_;
    record_finished(std::move(f));
    req.done = true;
}

void
Scheduler::record_finished(FinishedRequest f)
{
    sum_queue_s_ += f.queue_s();
    // TTFT is defined over requests that emitted a first token and
    // TPOT over those with an inter-token gap; anything else would
    // dilute the means (and percentiles) with structural zeros.
    // Cancelled / expired requests that did emit tokens count -- their
    // latencies were real serving latencies.
    if (f.generated > units::Tokens(0)) {
        sum_ttft_s_ += f.ttft_s();
        max_ttft_s_ = std::max(max_ttft_s_, f.ttft_s());
        insert_sorted(ttft_samples_, f.ttft_s());
        ++ttft_count_;
    }
    if (f.generated > units::Tokens(1)) {
        sum_tpot_s_ += f.tpot_s();
        insert_sorted(tpot_samples_, f.tpot_s());
        ++tpot_count_;
    }
    switch (f.reason) {
      case FinishReason::kCancelled:
      case FinishReason::kShutdown:
        ++cancelled_;
        break;
      case FinishReason::kDeadline:
        ++expired_;
        break;
      case FinishReason::kShed:
        ++requests_shed_;
        break;
      case FinishReason::kAdmissionTimeout:
        ++admission_timeouts_;
        break;
      default:
        break;
    }
    ++finished_count_;
    finished_.push_back(std::move(f));
}

void
Scheduler::retire_active(std::size_t index, FinishReason reason)
{
    ActiveRequest& req = active_[index];
    finish(req, reason);
    deregister_prefix_owner(req);
    if (!functional_) {
        release_analytic_prefix_refs(req);
        pool_.unreserve(req.analytic_reserved_bytes);
    }
    // Erasing destroys the session, whose caches drop their block
    // references -- the same release order the end-of-step retire
    // path uses, so shared prefix blocks survive while another
    // resident holds them.
    active_.erase(active_.begin() +
                  static_cast<std::ptrdiff_t>(index));
}

void
Scheduler::finish_queued(QueuedRequest&& queued, FinishReason reason)
{
    FinishedRequest f;
    f.id = queued.id;
    f.reason = reason;
    f.tokens = std::move(queued.resume_tokens);
    f.prompt_tokens = queued.request.prompt_tokens();
    f.generated = queued.resume_generated;
    f.preemptions = queued.preempt_count;
    f.arrival_s = queued.arrival_s;
    // Clamp the milestones so a request cancelled before its modeled
    // arrival (or before admission) reports zero queue wait rather
    // than a negative one.  A preempted request keeps its original
    // admission stamp -- it really was admitted back then.
    const double retired_s = std::max(now_s_, queued.arrival_s);
    f.admitted_s = queued.resumed ? queued.original_admitted_s
                                  : retired_s;
    f.first_token_s = queued.first_token_s;
    f.finished_s = retired_s;
    record_finished(std::move(f));
}

bool
Scheduler::cancel(std::uint64_t id)
{
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].id == id) {
            retire_active(i, FinishReason::kCancelled);
#if MUGI_AUDIT_INVARIANTS
            support::audit_or_abort("Scheduler::cancel",
                                    check_invariants());
#endif
            return true;
        }
    }
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->id == id) {
            finish_queued(std::move(*it),
                          FinishReason::kCancelled);
            queue_.erase(it);
            return true;
        }
    }
    return false;
}

std::size_t
Scheduler::cancel_all(FinishReason reason)
{
    std::size_t retired = 0;
    // Back to front: each retire erases, and earlier indexes stay
    // valid.  Order within finished_ still reads naturally enough --
    // callers key on ids, not positions.
    while (!active_.empty()) {
        retire_active(active_.size() - 1, reason);
        ++retired;
    }
    while (!queue_.empty()) {
        finish_queued(std::move(queue_.front()), reason);
        queue_.pop_front();
        ++retired;
    }
#if MUGI_AUDIT_INVARIANTS
    if (retired > 0) {
        support::audit_or_abort("Scheduler::cancel_all",
                                check_invariants());
    }
#endif
    return retired;
}

void
Scheduler::expire_deadlines()
{
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->request.deadline_s > 0.0 &&
            it->request.deadline_s <= now_s_) {
            finish_queued(std::move(*it), FinishReason::kDeadline);
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
    // Back to front so retire_active's erase keeps indexes valid.
    for (std::size_t i = active_.size(); i-- > 0;) {
        const ActiveRequest& a = active_[i];
        if (!a.done && a.request.deadline_s > 0.0 &&
            a.request.deadline_s <= now_s_) {
            retire_active(i, FinishReason::kDeadline);
        }
    }
}

void
Scheduler::expire_admission_timeouts()
{
    for (auto it = queue_.begin(); it != queue_.end();) {
        // Preempted requests were already admitted once: their
        // re-queue wait is preemption pressure, not admission load.
        const double timeout =
            it->request.admission_timeout_s > 0.0
                ? it->request.admission_timeout_s
                : config_.admission_timeout_s;
        if (!it->resumed && timeout > 0.0 &&
            it->arrival_s <= now_s_ &&
            now_s_ - it->arrival_s >= timeout) {
            finish_queued(std::move(*it),
                          FinishReason::kAdmissionTimeout);
            it = queue_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Scheduler::shed_for_capacity()
{
    if (config_.max_queued_requests == 0) {
        return;
    }
    // Candidates: arrived and never admitted.  Future trace arrivals
    // are not yet load; preempted re-queues must survive to keep the
    // bit-identity contract (their emitted tokens already stand).
    while (true) {
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (!queue_[i].resumed && queue_[i].arrival_s <= now_s_) {
                candidates.push_back(i);
            }
        }
        if (candidates.size() <= config_.max_queued_requests) {
            return;
        }
        // kRejectNewest: the last candidate in queue order (latest
        // arrival under FIFO submission).  kRejectLowestPriority:
        // minimum priority, ties broken toward the newest -- the
        // admission-side mirror of preemption's victim choice.
        std::size_t victim = candidates.back();
        if (config_.shed_policy == ShedPolicy::kRejectLowestPriority) {
            for (const std::size_t i : candidates) {
                if (queue_[i].request.priority <=
                    queue_[victim].request.priority) {
                    victim = i;
                }
            }
        }
        finish_queued(std::move(queue_[victim]), FinishReason::kShed);
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(victim));
    }
}

bool
Scheduler::step()
{
    if (queue_.empty() && active_.empty()) {
        return false;
    }
    // Idle scheduler, all queued arrivals in the future: fast-forward
    // the modeled clock to the next arrival.
    if (active_.empty() && !queue_.empty() &&
        queue_.front().arrival_s > now_s_) {
        idle_s_ += queue_.front().arrival_s - now_s_;
        now_s_ = queue_.front().arrival_s;
    }
    // A queued request whose deadline already passed must never be
    // admitted (and must not block FIFO admission behind it).
    expire_deadlines();
    // Overload protection runs before admission so a shed request is
    // never charged against the pool: timeouts first (a timed-out
    // request is not load the bounded queue should shed someone else
    // for), then the capacity bound.
    expire_admission_timeouts();
    shed_for_capacity();
    admit_arrivals();
    if (active_.empty()) {
        return !queue_.empty();
    }
    // Guarantee this iteration's appends have blocks before any work
    // is planned: evicting mid-layer is not an option, so pressure is
    // resolved up front (vLLM-style recompute preemption).
    preempt_for_pressure();

    // Build the iteration's mixed plan: one prefill chunk per
    // prompt-phase request, one decode step per generation-phase
    // request; everything shares one weight-stream-shared workload.
    StepPlan plan;
    std::vector<std::size_t> prefill_owner;
    std::vector<std::size_t> decode_owner;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        ActiveRequest& a = active_[i];
        if (!a.prefill_done()) {
            const units::Tokens chunk = step_append_tokens(a);
            StepPlan::PrefillEntry entry;
            entry.session = &a.session;
            if (functional_) {
                entry.tokens = std::span<const int>(a.feed).subspan(
                    a.prompt_fed.value(), chunk.value());
            } else {
                entry.analytic_tokens = chunk;
            }
            plan.prefills.push_back(entry);
            prefill_owner.push_back(i);
        } else {
            plan.decode_sessions.push_back(&a.session);
            if (functional_) {
                plan.decode_tokens.push_back(a.pending_token);
            }
            decode_owner.push_back(i);
        }
    }

    plan.threads = config_.step_threads;
    const StepResult result = engine_.step(plan);
    if (result.workers.threads > 0) {
        ++pooled_steps_;
        sum_worker_busy_ += result.workers.busy_fraction;
    }
    horizon_.add(result.report.perf);
    now_s_ = idle_s_ + horizon_.elapsed_s();
    decode_tokens_ += units::Tokens(plan.decode_sessions.size());
    for (const StepPlan::PrefillEntry& entry : plan.prefills) {
        prefill_tokens_ += entry.size();
    }

    for (std::size_t k = 0; k < result.outputs.size(); ++k) {
        emit_token(active_[decode_owner[k]],
                   result.outputs[k].next_token);
    }
    for (std::size_t k = 0; k < result.prefill_outputs.size(); ++k) {
        ActiveRequest& a = active_[prefill_owner[k]];
        a.prompt_fed += plan.prefills[k].size();
        if (!a.prefill_done()) {
            continue;
        }
        // Prefill complete: the chunk's final logits already carry
        // the next generated token.  A resumed request (generated >
        // 0) just replayed its history -- its TTFT stands and its
        // next emission continues where eviction cut it off.
        if (a.generated == units::Tokens(0)) {
            if (a.request.max_new_tokens == units::Tokens(0)) {
                // No token will ever be emitted: retire without a
                // first-token stamp so the request cannot contribute
                // a fake TTFT to the aggregates.
                finish(a, FinishReason::kMaxTokens);
                continue;
            }
            a.first_token_s = now_s_;
        }
        emit_token(a, result.prefill_outputs[k].next_token);
    }

    // Mirror analytic cache growth into the pool before retiring:
    // finished requests' memory was resident through this iteration,
    // so the pool's peak sees it.
    for (ActiveRequest& a : active_) {
        sync_analytic_reservation(a);
    }
    // Deadlines are checked after the clock advance and emissions:
    // a deadline passing mid-iteration still delivers this
    // iteration's token, then the request retires with its KV blocks
    // released exactly as on a natural finish.
    expire_deadlines();
    for (ActiveRequest& a : active_) {
        if (!a.done) {
            continue;
        }
        deregister_prefix_owner(a);
        if (!functional_) {
            release_analytic_prefix_refs(a);
            pool_.unreserve(a.analytic_reserved_bytes);
        }
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](const ActiveRequest& a) {
                                     return a.done;
                                 }),
                  active_.end());
#if MUGI_AUDIT_INVARIANTS
    // Every scheduler iteration ends structurally consistent:
    // refcount or reservation drift is corruption, caught here at
    // the step that introduced it instead of steps later.
    support::audit_or_abort("Scheduler::step", check_invariants());
#endif
    return !(queue_.empty() && active_.empty());
}

std::string
Scheduler::check_invariants() const
{
    std::ostringstream out;
    // Rung 1: the pool's own slot/refcount/free-list accounting.
    const std::string pool_violation = pool_.check_invariants();
    if (!pool_violation.empty()) {
        return "pool: " + pool_violation;
    }
    // Rung 2: every prefix-index entry names resident owners that
    // actually hold the key (entries live exactly as long as their
    // owner is resident).
    for (const auto& [key, owners] : prefix_index_) {
        if (owners.empty()) {
            out << "prefix index key " << key << " has no owners";
            return out.str();
        }
        for (const std::uint64_t owner : owners) {
            const auto holder = std::find_if(
                active_.begin(), active_.end(),
                [owner](const ActiveRequest& a) {
                    return a.id == owner;
                });
            if (holder == active_.end()) {
                out << "prefix index key " << key
                    << " owned by non-resident request " << owner;
                return out.str();
            }
            if (std::find(holder->prefix_keys.begin(),
                          holder->prefix_keys.end(),
                          key) == holder->prefix_keys.end()) {
                out << "prefix index key " << key << " not among "
                    << "request " << owner << "'s prefix keys";
                return out.str();
            }
            if (std::count(owners.begin(), owners.end(), owner) !=
                1) {
                out << "request " << owner
                    << " listed twice for prefix key " << key;
                return out.str();
            }
        }
    }
    if (functional_) {
        // Functional serving reserves nothing analytically, and
        // every pool reference is a resident session's block-table
        // entry: the per-slot refcount total must equal the sum of
        // the sessions' tables, or a cache leaked / double-freed a
        // reference.
        if (pool_.reserved_bytes() != units::Bytes(0)) {
            out << "functional scheduler holds "
                << pool_.reserved_bytes()
                << " analytic reserved bytes";
            return out.str();
        }
        units::Blocks table_blocks{0};
        for (const ActiveRequest& a : active_) {
            table_blocks += a.session.kv_block_count();
        }
        if (table_blocks.value() != pool_.ref_total()) {
            out << "resident sessions hold " << table_blocks
                << " block-table entries but the pool counts "
                << pool_.ref_total() << " references";
            return out.str();
        }
        return {};
    }
    // Analytic serving: recount the prefix refcounts from scratch
    // and recompute the exact reservation the pool must carry --
    // each refcounted shared group once (at its holders' precision)
    // plus every resident's private tail.
    std::unordered_map<std::uint64_t, std::size_t> refs;
    units::Bytes expected_reserved{0};
    for (const ActiveRequest& a : active_) {
        if (a.analytic_refs_held > a.prefix_keys.size()) {
            out << "request " << a.id << " holds "
                << a.analytic_refs_held << " refs over "
                << a.prefix_keys.size() << " prefix keys";
            return out.str();
        }
        for (std::size_t i = 0; i < a.analytic_refs_held; ++i) {
            if (refs[a.prefix_keys[i]]++ == 0) {
                expected_reserved +=
                    block_group_bytes(a.session.kv_precision());
            }
        }
        expected_reserved += a.analytic_reserved_bytes;
    }
    if (refs.size() != analytic_prefix_refs_.size()) {
        out << "analytic prefix refs track "
            << analytic_prefix_refs_.size() << " keys, recount finds "
            << refs.size();
        return out.str();
    }
    for (const auto& [key, count] : refs) {
        const auto it = analytic_prefix_refs_.find(key);
        if (it == analytic_prefix_refs_.end() ||
            it->second != count) {
            out << "analytic prefix key " << key << " recounts to "
                << count << " sharers, tracked as "
                << (it == analytic_prefix_refs_.end() ? 0
                                                      : it->second);
            return out.str();
        }
    }
    if (pool_.blocks_in_use() != units::Blocks(0)) {
        out << "analytic scheduler pool holds "
            << pool_.blocks_in_use() << " physical blocks";
        return out.str();
    }
    if (expected_reserved != pool_.reserved_bytes()) {
        out << "pool reserves " << pool_.reserved_bytes()
            << " bytes, recomputed reservations total "
            << expected_reserved;
        return out.str();
    }
    return {};
}

std::vector<FinishedRequest>
Scheduler::run()
{
    while (step()) {
    }
    return take_finished();
}

std::vector<FinishedRequest>
Scheduler::take_finished()
{
    std::vector<FinishedRequest> out;
    out.swap(finished_);
    return out;
}

ServerStats
Scheduler::stats() const
{
    ServerStats s;
    s.horizon = horizon_.total();
    s.steps = horizon_.steps();
    s.now_s = now_s_;
    s.submitted = submitted_;
    s.finished = finished_count_;
    s.active = active_.size();
    s.queued = queue_.size();
    s.decode_tokens = decode_tokens_;
    s.prefill_tokens = prefill_tokens_;
    s.generated_tokens = generated_tokens_;
    s.kv_budget_bytes = config_.kv_budget_bytes;
    s.kv_bytes_in_use = pool_.bytes_in_use();
    s.peak_kv_bytes = pool_.peak_bytes_in_use();
    s.peak_pool_utilization = pool_.peak_utilization();
    s.preemptions = preemptions_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    s.requests_shed = requests_shed_;
    s.admission_timeouts = admission_timeouts_;
    s.prefix_hits = prefix_hits_;
    s.shared_blocks = shared_blocks_;
    s.saved_prefill_tokens = saved_prefill_tokens_;
    s.target_batch = target_batch();
    if (finished_count_ > 0) {
        s.mean_queue_s =
            sum_queue_s_ / static_cast<double>(finished_count_);
    }
    // Each latency mean divides by the count of requests it is
    // defined over, not by every finished request.
    if (ttft_count_ > 0) {
        s.mean_ttft_s =
            sum_ttft_s_ / static_cast<double>(ttft_count_);
        s.max_ttft_s = max_ttft_s_;
    }
    if (tpot_count_ > 0) {
        s.mean_tpot_s =
            sum_tpot_s_ / static_cast<double>(tpot_count_);
    }
    // Exact nearest-rank percentiles over the same per-request
    // samples the means use; record_finished keeps them sorted, so
    // serve::Server's per-step stats() call costs no copy or sort.
    s.p50_ttft_s = nearest_rank(ttft_samples_, 50.0);
    s.p95_ttft_s = nearest_rank(ttft_samples_, 95.0);
    s.p99_ttft_s = nearest_rank(ttft_samples_, 99.0);
    s.p50_tpot_s = nearest_rank(tpot_samples_, 50.0);
    s.p95_tpot_s = nearest_rank(tpot_samples_, 95.0);
    s.p99_tpot_s = nearest_rank(tpot_samples_, 99.0);
    s.pooled_steps = pooled_steps_;
    if (pooled_steps_ > 0) {
        s.mean_worker_busy =
            sum_worker_busy_ / static_cast<double>(pooled_steps_);
        s.mean_worker_idle = 1.0 - s.mean_worker_busy;
    }
    return s;
}

}  // namespace serve
}  // namespace mugi
