/**
 * @file
 * A small fixed-size thread pool: a mutex-protected task queue drained
 * by worker threads, plus a blocking parallelFor the caller joins. One
 * pool serves nested parallelFors: idle workers pick up the queued
 * helpers of any open batch. Built for coarse DSE evaluation tasks.
 */

#ifndef SCALEHLS_SUPPORT_THREAD_POOL_H
#define SCALEHLS_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace scalehls {

class ThreadPool
{
  public:
    /** @p num_threads worker threads; 0 means hardware_concurrency().
     * A pool of size 1 runs everything inline on the calling thread (no
     * worker is spawned), so single-threaded runs stay deterministic and
     * debuggable. */
    explicit ThreadPool(unsigned num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads that execute work (>= 1, counting the caller for
     * inline pools). */
    unsigned size() const { return size_; }

    /** Run fn(0..n-1), blocking until all iterations finish. Iterations
     * are handed out through an atomic counter; the calling thread works
     * alongside the pool, so a parallelFor nested in an iteration never
     * deadlocks. The first exception thrown by any iteration is rethrown
     * on the caller after all iterations drain. */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** Enqueue one task for asynchronous execution (inline pools run it
     * immediately, so a throwing task throws here). Use waitIdle() to
     * join. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. The first
     * exception thrown by a submitted task since the last waitIdle() is
     * rethrown here (inline pools throw from submit() instead). */
    void waitIdle();

  private:
    void workerLoop();

    unsigned size_ = 1;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    size_t in_flight_ = 0;
    bool shutdown_ = false;
    std::exception_ptr pending_error_;
};

/** The default DSE worker count: hardware_concurrency, at least 1. */
unsigned defaultThreadCount();

} // namespace scalehls

#endif // SCALEHLS_SUPPORT_THREAD_POOL_H
