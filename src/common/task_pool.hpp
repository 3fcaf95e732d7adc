/**
 * @file
 * Persistent worker pool for fine-grained per-cycle fan-out: run(n)
 * executes fn(ctx, i) for i in [0, n) across the pool and returns when
 * every index has completed. Built for the phased SM tick engine
 * (gpu::Gpu::run), where one dispatch per simulated cycle must cost on
 * the order of a microsecond, so the design choices differ from the
 * coarse-grained harness::SweepEngine pool:
 *
 *  - The calling thread participates: it drains indices alongside the
 *    workers, so a pool of T threads spawns only T-1. On a machine
 *    with fewer cores than threads (or a pool bigger than the work),
 *    the caller simply does everything itself and never blocks on a
 *    descheduled worker.
 *  - Indices are claimed from a shared atomic counter (work stealing),
 *    not pre-chunked, so a stalled worker can only delay the indices
 *    it already claimed. The counter is tagged with the dispatch's
 *    epoch, so a worker that is slow to leave one dispatch can never
 *    claim into the next.
 *  - Workers spin briefly on an epoch counter between dispatches
 *    (consecutive simulated cycles arrive within microseconds) and
 *    fall back to a condition variable when idle, so an idle pool
 *    costs no CPU.
 *
 * Completion is detected by a per-index done count, never by queue
 * emptiness, so run() returning means every fn call has finished and
 * its writes are visible to the caller (release/acquire on done_).
 * The assignment of indices to threads is scheduling-dependent; callers
 * needing determinism must make fn(i) touch index-private state only,
 * which is exactly the contract of the SM-local tick phase.
 */

#ifndef GEX_COMMON_TASK_POOL_HPP
#define GEX_COMMON_TASK_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace gex::common {

class TaskPool
{
  public:
    /** Plain function pointer: one indirect call per index, and a
     *  capture-less lambda converts implicitly. */
    using Fn = void (*)(void *ctx, int index);

    /** @p threads total workers including the caller (min 1). */
    explicit TaskPool(int threads)
    {
        int spawn = threads > 1 ? threads - 1 : 0;
        workers_.reserve(static_cast<std::size_t>(spawn));
        for (int t = 0; t < spawn; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~TaskPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_.store(true, std::memory_order_release);
            epoch_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    int threads() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /** Execute fn(ctx, 0..n-1); returns once all calls completed. */
    void
    run(int n, Fn fn, void *ctx)
    {
        if (n <= 0)
            return;
        if (workers_.empty()) {
            for (int i = 0; i < n; ++i)
                fn(ctx, i);
            return;
        }
        // Every claim of the previous dispatch completed before its
        // run() returned, so the job slots and done_ are free to reuse.
        fn_ = fn;
        ctx_ = ctx;
        done_.store(0, std::memory_order_relaxed);
        const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
        pending_.store(e << 32 | static_cast<std::uint32_t>(n),
                       std::memory_order_release);
        {
            // The lock pairs with the cv_ predicate check so a worker
            // moving to sleep cannot miss the epoch bump.
            std::lock_guard<std::mutex> lock(mu_);
            epoch_.store(e, std::memory_order_release);
        }
        cv_.notify_all();
        drain(e);
        // Queue emptiness is not completion: a worker may hold a
        // claimed index. Wait for the count, yielding so an
        // oversubscribed worker can finish its claim.
        while (done_.load(std::memory_order_acquire) < n)
            std::this_thread::yield();
    }

  private:
    /**
     * Claim and run indices of dispatch @p epoch until none are left.
     * A claim is a CAS on pending_, which packs the dispatch's epoch
     * with its unclaimed count, so a worker still leaving an earlier
     * dispatch can never take an index of a later one (the CAS fails
     * once run() stored the new word) and every done_ increment
     * belongs to the dispatch that counts it.
     */
    void
    drain(std::uint64_t epoch)
    {
        std::uint64_t c = pending_.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t left = static_cast<std::uint32_t>(c);
            if (c >> 32 != (epoch & 0xffffffffu) || left == 0)
                return;
            if (pending_.compare_exchange_weak(c, c - 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
                fn_(ctx_, static_cast<int>(left) - 1);
                done_.fetch_add(1, std::memory_order_release);
            }
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = epoch_.load(std::memory_order_acquire);
        for (;;) {
            // A worker first scheduled only after ~TaskPool ran (tiny
            // pool lifetime on a loaded host) starts with seen already
            // at the final epoch, so no further bump or notify is
            // coming: stop_ must gate the wait itself, not just the
            // post-wakeup path.
            if (stop_.load(std::memory_order_acquire))
                return;
            int spins = 0;
            while (epoch_.load(std::memory_order_acquire) == seen) {
                if (stop_.load(std::memory_order_acquire))
                    return;
                if (++spins < kSpinsBeforeSleep) {
                    std::this_thread::yield();
                } else {
                    std::unique_lock<std::mutex> lock(mu_);
                    cv_.wait(lock, [&] {
                        return stop_.load(std::memory_order_relaxed) ||
                               epoch_.load(std::memory_order_relaxed) !=
                                   seen;
                    });
                    break;
                }
            }
            seen = epoch_.load(std::memory_order_acquire);
            if (stop_.load(std::memory_order_relaxed))
                return;
            drain(seen);
        }
    }

    static constexpr int kSpinsBeforeSleep = 1024;

    // Job slots: written by run() before the pending_ release-store,
    // read by workers only after a successful claim of that dispatch.
    Fn fn_ = nullptr;
    void *ctx_ = nullptr;

    /** (epoch mod 2^32) << 32 | indices not yet claimed. */
    alignas(64) std::atomic<std::uint64_t> pending_{0};
    alignas(64) std::atomic<int> done_{0};
    alignas(64) std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> stop_{false};

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::thread> workers_;
};

} // namespace gex::common

#endif // GEX_COMMON_TASK_POOL_HPP
