#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"

namespace spatl::common {

namespace {
// Active ScopedOverride target, or null for the global pool. Atomic so that
// worker threads running nested parallel_for observe the override installed
// by the test thread.
std::atomic<ThreadPool*> g_pool_override{nullptr};

// Pool utilization telemetry. Handles are registered once (magic static);
// every update afterwards is a relaxed atomic on the calling thread's
// shard, so instrumentation adds no lock to the work loop.
struct PoolMetrics {
  obs::Counter batches =
      obs::MetricsRegistry::instance().counter("threadpool.batches");
  obs::Counter chunks =
      obs::MetricsRegistry::instance().counter("threadpool.chunks");
  obs::Gauge queue_depth =
      obs::MetricsRegistry::instance().gauge("threadpool.queue_depth");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::execute_chunk(std::unique_lock<std::mutex>& lock,
                               Batch& batch, std::size_t chunk,
                               const std::function<void(std::size_t)>& fn) {
  lock.unlock();
  pool_metrics().chunks.increment();
  std::exception_ptr err;
  try {
    fn(chunk);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !batch.error) batch.error = err;
  if (++batch.done == batch.total) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    Batch* batch = pending_.front();
    const std::size_t chunk = batch->next++;
    if (batch->next >= batch->total) {
      pending_.pop_front();
      pool_metrics().queue_depth.set(double(pending_.size()));
    }
    execute_chunk(lock, *batch, chunk, *batch->fn);
  }
}

void ThreadPool::run_chunks(std::size_t num_chunks,
                            const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;
  PoolMetrics& metrics = pool_metrics();
  metrics.batches.increment();
  if (workers_.empty() || num_chunks == 1) {
    for (std::size_t i = 0; i < num_chunks; ++i) {
      metrics.chunks.increment();
      fn(i);
    }
    return;
  }
  Batch batch;
  batch.fn = &fn;
  batch.total = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(&batch);
    metrics.queue_depth.set(double(pending_.size()));
  }
  work_cv_.notify_all();
  // The submitter drains its own batch: it makes progress without depending
  // on any worker being free, which is what keeps nested calls live-locked
  // workers cannot be. A worker claiming the last chunk pops the batch from
  // the queue front; the submitter may claim it from mid-queue, hence erase.
  std::unique_lock<std::mutex> lock(mu_);
  while (batch.next < batch.total) {
    const std::size_t chunk = batch.next++;
    if (batch.next >= batch.total) {
      pending_.erase(std::find(pending_.begin(), pending_.end(), &batch));
      metrics.queue_depth.set(double(pending_.size()));
    }
    execute_chunk(lock, batch, chunk, fn);
  }
  done_cv_.wait(lock, [&batch] { return batch.done == batch.total; });
  lock.unlock();
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(std::max<std::size_t>(
      1, std::thread::hardware_concurrency()) - 1);
  return pool;
}

ThreadPool& ThreadPool::current() {
  ThreadPool* override_pool = g_pool_override.load(std::memory_order_acquire);
  return override_pool != nullptr ? *override_pool : global();
}

ThreadPool::ScopedOverride::ScopedOverride(ThreadPool& pool)
    : previous_(g_pool_override.exchange(&pool, std::memory_order_acq_rel)) {}

ThreadPool::ScopedOverride::~ScopedOverride() {
  g_pool_override.store(previous_, std::memory_order_release);
}

}  // namespace spatl::common
