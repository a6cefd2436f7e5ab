/**
 * @file
 * Persistent worker-thread pool for data-parallel loops.
 *
 * The decode hot path partitions INDEPENDENT work items — one batch
 * row's attention walk and matvecs per item in decodeStepBatch — across
 * a fixed set of long-lived threads. Each item is computed by exactly
 * one thread with exactly the arithmetic the serial loop would use, so
 * partitioning changes WHERE a row is computed, never WHAT is computed:
 * results are bit-identical to the serial path by construction (the
 * bit-identical-streams invariant does not even need an argument here,
 * only disjointness of the per-item writes).
 *
 * Design notes:
 *  - Threads are created once and parked on a condition variable
 *    between loops; a parallelFor wakes them, hands out item indices
 *    via an atomic counter (dynamic self-scheduling, so rows with
 *    different cache lengths balance), and the CALLER participates as
 *    the last worker instead of blocking idle.
 *  - A pool of size 1 (or parallelFor over 0-1 items) never touches
 *    the threads and degenerates to the plain serial loop.
 *  - The pool is intentionally mutex-per-loop, not lock-free: the
 *    mutex is taken once per parallelFor to publish the job and once
 *    per worker wake-up, never per item. (The lock-free structure in
 *    this codebase is the front end's submit ring, which has
 *    producers that must never block each other; see
 *    serve/router.h.)
 */

#ifndef MXPLUS_COMMON_WORKER_POOL_H
#define MXPLUS_COMMON_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mxplus {

/** Fixed-size pool of parked threads executing parallelFor loops. */
class WorkerPool
{
  public:
    /**
     * Create a pool that runs loops on @p threads threads total,
     * including the caller: @p threads - 1 helpers are spawned. 0 is
     * normalized to 1 (a pure-serial pool with no helper threads).
     */
    explicit WorkerPool(size_t threads);

    /** Joins all helper threads (waits for a running loop to finish). */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Total threads a loop may use (helpers + the caller). */
    size_t threads() const { return helpers_.size() + 1; }

    /**
     * Run fn(i) for every i in [0, n), partitioned dynamically across
     * the pool; returns when every item has finished. The caller's
     * thread participates. fn must treat distinct items as independent
     * (no ordering between them) and must not call parallelFor on the
     * same pool reentrantly.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    void helperLoop();
    /** Pull items off the current job until it is exhausted. */
    void work();

    std::mutex mu_;
    std::condition_variable wake_;   ///< helpers wait here for a job
    std::condition_variable done_;   ///< caller waits here for completion
    const std::function<void(size_t)> *fn_ = nullptr; ///< current job
    size_t n_ = 0;                   ///< items in the current job
    std::atomic<size_t> next_{0};    ///< next item to claim
    size_t finished_ = 0;            ///< items completed (under mu_)
    size_t joined_ = 0;              ///< helpers inside the job (under mu_)
    uint64_t job_seq_ = 0;           ///< bumps per job (wake predicate)
    bool stop_ = false;

    std::vector<std::thread> helpers_;
};

} // namespace mxplus

#endif // MXPLUS_COMMON_WORKER_POOL_H
