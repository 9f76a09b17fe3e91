#include "support/thread_pool.h"

#include <cassert>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

namespace mugi {
namespace support {

std::vector<std::pair<std::size_t, std::size_t>>
split_ranges(std::size_t count, std::size_t parts)
{
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const std::size_t n = count < parts ? count : parts;
    ranges.reserve(n);
    std::size_t begin = 0;
    for (std::size_t p = 0; p < n; ++p) {
        const std::size_t end =
            begin + count / n + (p < count % n ? 1 : 0);
        ranges.emplace_back(begin, end);
        begin = end;
    }
    return ranges;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    assert(threads >= 1 && "a pool needs at least one worker");
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::run(std::function<void()> task)
{
    {
        MutexLock lock(mu_);
        assert(!shutdown_ && "run() on a pool being destroyed");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::execute_timed(const std::function<void()>& task)
{
    const auto start = std::chrono::steady_clock::now();
    task();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                elapsed)
                .count()),
        std::memory_order_relaxed);
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::worker_loop()
{
    // Manual lock/unlock instead of a scoped guard: the capability
    // analysis tracks the balanced acquire/release across the loop
    // (held at the loop head, released around the task body), and
    // cv_.wait(mu_) unlocks/relocks through the annotated Mutex's own
    // BasicLockable interface.
    mu_.lock();
    for (;;) {
        while (queue_.empty() && !shutdown_) {
            cv_.wait(mu_);
        }
        if (queue_.empty()) {
            break;  // shutdown_ and fully drained.
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        mu_.unlock();
        execute_timed(task);
        mu_.lock();
    }
    mu_.unlock();
}

void
ThreadPool::parallel_for(std::size_t count,
                         const std::function<void(std::size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    if (count == 1) {
        // A single task gains nothing from a worker handoff, and the
        // bytes are the same whichever thread runs it.
        fn(0);
        return;
    }
    // Per-call join state: concurrent parallel_for calls over one
    // pool each wait on their own barrier.  shared_ptr keeps the
    // state alive until the last task's notify completed, even
    // though the caller normally outlives its tasks.
    struct State {
        std::atomic<std::size_t> remaining{0};
        Mutex mu;
        std::condition_variable_any cv;
        std::size_t first_error MUGI_GUARDED_BY(mu) =
            std::numeric_limits<std::size_t>::max();
        std::exception_ptr error MUGI_GUARDED_BY(mu);
    };
    auto state = std::make_shared<State>();
    state->remaining.store(count, std::memory_order_relaxed);
    // Enqueue every index under one lock (one submission round-trip
    // per barrier, not per task).  fn is captured by reference: the
    // caller blocks below until every task finished, so the referent
    // outlives all uses.
    {
        MutexLock lock(mu_);
        assert(!shutdown_ &&
               "parallel_for() on a pool being destroyed");
        for (std::size_t i = 0; i < count; ++i) {
            queue_.push_back([state, &fn, i] {
                std::exception_ptr error;
                try {
                    fn(i);
                } catch (...) {
                    error = std::current_exception();
                }
                if (error) {
                    MutexLock elock(state->mu);
                    if (i < state->first_error) {
                        state->first_error = i;
                        state->error = std::move(error);
                    }
                    // Drop this task's reference before the count
                    // below releases the caller: only the caller may
                    // free the exception, on its own thread.
                    error = nullptr;
                }
                // acq_rel: the caller's acquire load of zero must see
                // every byte the tasks wrote.
                if (state->remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1) {
                    // Empty critical section: a caller past its spin
                    // phase is either not yet waiting (it re-checks
                    // remaining under state->mu before sleeping) or
                    // already in wait (this lock serializes after it
                    // released state->mu) -- either way the notify is
                    // not lost.
                    { MutexLock block(state->mu); }
                    state->cv.notify_all();
                }
            });
        }
    }
    cv_.notify_all();
    // The caller is not a passive waiter: drain queued tasks until
    // this barrier's count hits zero.  That adds the calling thread
    // to the worker set and removes the final worker-to-caller
    // wakeup from the critical path.
    while (state->remaining.load(std::memory_order_acquire) != 0) {
        std::function<void()> task;
        {
            MutexLock lock(mu_);
            if (!queue_.empty()) {
                task = std::move(queue_.front());
                queue_.pop_front();
            }
        }
        if (task) {
            execute_timed(task);
            continue;
        }
        // Queue drained but stragglers still run on workers: spin
        // briefly (straggler tails are usually microseconds), then
        // sleep on the barrier's condvar.
        bool done = false;
        for (int spin = 0; spin < 4096; ++spin) {
            if (state->remaining.load(std::memory_order_acquire) ==
                0) {
                done = true;
                break;
            }
        }
        if (done) {
            break;
        }
        state->mu.lock();
        while (state->remaining.load(std::memory_order_acquire) !=
               0) {
            state->cv.wait(state->mu);
        }
        state->mu.unlock();
        break;
    }
    // Move the exception out rather than copy it, so a worker's last
    // State drop (which may run ~State on that worker) never owns it.
    std::exception_ptr error;
    {
        MutexLock lock(state->mu);
        error = std::move(state->error);
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

}  // namespace support
}  // namespace mugi
