// Fixed-size worker pool with a chunked ParallelFor.
//
// The ZLTP server's per-request cost is dominated by the record XOR scan
// (paper §5.1), an embarrassingly parallel pass, and the paper's latency
// figures assume the server "can use multiple cores". This pool runs that
// scan: a fixed worker set is spawned once per server and reused across
// requests, so the steady state pays no thread creation. (DPF expansion
// stops 7 levels early and costs less than a pool hand-off, so it runs on
// the caller.)
//
// Scheduling is static partitioning with work handoff: ParallelFor cuts the
// range into a few chunks per thread (never smaller than `grain`) and
// workers pull chunks off a shared atomic cursor, so a straggler sheds its
// remaining chunks to idle peers without any per-element synchronization.
// The calling thread always participates, which gives two graceful
// fallbacks for free: a pool built with threads <= 1 spawns no workers and
// runs everything inline, and nested ParallelFor calls (from inside a chunk
// body) also run inline instead of deadlocking.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lw {

class ThreadPool {
 public:
  // Total threads ParallelFor may use, including the caller: a pool built
  // with `threads` spawns threads-1 workers. threads <= 0 selects
  // HardwareThreads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads a ParallelFor can occupy (workers + caller); >= 1.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  // Invokes fn(chunk_begin, chunk_end) over a disjoint partition of
  // [begin, end), with every chunk at least `grain` elements (except the
  // last). Blocks until all chunks have completed; exceptions thrown by fn
  // are rethrown here (first one wins). fn runs concurrently on up to
  // thread_count() threads — chunks must not touch overlapping state.
  // Empty ranges, single-thread pools, ranges no larger than `grain`, and
  // nested calls all run fn(begin, end) inline on the caller.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static int HardwareThreads();

 private:
  struct Region;

  void WorkerLoop();
  // Pulls chunks from `region` until its cursor is exhausted. `stolen`
  // marks chunks executed by a pool worker (vs the submitting caller) in
  // the lw_pool_chunks_stolen_total metric.
  static void RunChunks(Region& region, bool stolen);

  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards active_/epoch_/stop_ and pairs with cv_
  std::condition_variable cv_;
  // Heap-shared so late-waking workers can still hold the region briefly
  // after the caller has moved on (see ParallelFor).
  std::shared_ptr<Region> active_;
  std::uint64_t epoch_ = 0;  // bumped per region so workers never re-run one
  bool stop_ = false;

  std::mutex region_mu_;  // serializes concurrent ParallelFor callers
};

}  // namespace lw
