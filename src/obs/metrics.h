// Lock-cheap aggregate metrics for the serving stack.
//
// The registry holds three instrument kinds — monotonic counters, gauges,
// and fixed-bucket histograms — all built on relaxed atomics so the hot
// paths (per-request, per-batch, per-scan-chunk) pay one uncontended
// cache-line RMW, never a lock. Counters and gauges are cache-line padded
// so two instruments updated by different threads never false-share.
//
// PRIVACY INVARIANT (paper §2): ZLTP exists so that no one — not the
// network, not the servers — learns WHICH blob a client fetches. Telemetry
// must therefore be aggregate-only: metric names and label values are
// compile-time string literals, and nothing derived from a request payload,
// blob name, keyword, or domain index may reach a metric name, label, or
// bucket boundary. A per-blob counter would be a readable access log and
// void the whole system. lwlint's `metric-label-from-request` rule enforces
// this mechanically; docs/OBSERVABILITY.md states the policy and catalogs
// every exported metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lw::obs {

// Monotonic event counter. Inc() is one relaxed fetch_add; Value() is a
// relaxed load (scrapes tolerate being a few events behind a racing
// increment — each counter is individually monotonic).
class alignas(64) Counter {
 public:
  void Inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Instantaneous level (active connections, resident records). Signed so a
// racing Add/Sub pair can transiently dip below zero without UB.
class alignas(64) Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket histogram over non-negative integer samples (latencies in
// ns, batch sizes). Bucket i counts samples <= bounds[i]; one extra
// overflow bucket counts the rest. Observe() is a short predictable scan
// plus two relaxed RMWs. The total count is always derived from the bucket
// counts at snapshot time, so `count == sum(bucket counts)` holds for every
// snapshot by construction (the sample sum may trail by in-flight
// observations; it is monotonic).
class Histogram {
 public:
  // `bounds` are strictly ascending inclusive upper bounds. Production
  // histograms are created via Registry::AddHistogram; this is public so
  // tests can exercise bucket mechanics standalone.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void Observe(std::uint64_t value) {
    std::size_t i = 0;
    const std::size_t n = bounds_.size();
    while (i < n && value > bounds_[i]) ++i;
    counts_[i].v.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  // counts()[i] pairs with bounds()[i]; the final entry is the overflow
  // bucket. Values are non-cumulative.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) PaddedCount {
    std::atomic<std::uint64_t> v{0};
  };

  std::vector<std::uint64_t> bounds_;  // ascending inclusive upper bounds
  std::unique_ptr<PaddedCount[]> counts_;  // bounds_.size() + 1 cells
  alignas(64) std::atomic<std::uint64_t> sum_{0};
};

// `n` ascending bounds: start, start*factor, start*factor^2, ...
std::vector<std::uint64_t> ExponentialBounds(std::uint64_t start,
                                             double factor, std::size_t n);

// ---------------------------------------------------------------- snapshot

struct CounterSnapshot {
  std::string name, help, unit;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name, help, unit;
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name, help, unit;
  std::vector<std::uint64_t> bounds;  // upper bounds; counts has one extra
  std::vector<std::uint64_t> counts;  // non-cumulative, incl. overflow cell
  std::uint64_t sum = 0;
  std::uint64_t count = 0;  // == sum of counts, by construction
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

// ---------------------------------------------------------------- registry

// Owns instruments; registration is mutex-guarded (cold: once per process
// per metric), reads and updates are lock-free. Returned references stay
// valid for the registry's lifetime. Names must be unique across kinds —
// duplicate registration is a programming error (LW_CHECK).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // The process-wide registry every production metric lives in. Never
  // destroyed (detached server threads may record until process exit).
  static Registry& Default();

  Counter& AddCounter(const char* name, const char* help, const char* unit);
  Gauge& AddGauge(const char* name, const char* help, const char* unit);
  Histogram& AddHistogram(const char* name, const char* help,
                          const char* unit,
                          std::vector<std::uint64_t> bounds);

  // A point-in-time view: every value read with relaxed loads, each
  // instrument internally consistent (see Histogram). Safe to call while
  // writers are hot.
  MetricsSnapshot Snapshot() const;

 private:
  struct Named {
    std::string name, help, unit;
  };
  template <typename T>
  struct Entry {
    Named meta;
    std::unique_ptr<T> instrument;
  };

  void CheckNameFree(const char* name) const;

  mutable std::mutex mu_;  // guards the vectors, not the instruments
  std::vector<Entry<Counter>> counters_;
  std::vector<Entry<Gauge>> gauges_;
  std::vector<Entry<Histogram>> histograms_;
};

// ------------------------------------------------------- the metric set

// Every metric the serving stack exports, registered in
// Registry::Default() on first use. Central on purpose: this struct is the
// single source of truth the docs/OBSERVABILITY.md catalog mirrors, and a
// reviewer can audit the whole privacy surface in one screen — every name
// below is a literal, none is derived from request data.
struct Metrics {
  // ZLTP servers (PIR + enclave modes).
  Counter& server_connections;
  Counter& server_requests;
  Counter& server_request_errors;
  Gauge& server_active_connections;
  Histogram& server_request_ns;  // decode → reply, per request

  // Sharded deployment (§5.2): front-ends and shard data servers.
  Counter& frontend_requests;
  Counter& frontend_request_errors;
  Counter& shard_requests;

  // Front-end shard fan-out (the multiplexed client path, zltp/frontend.cc):
  // ops in flight across all shard links, per-shard sub-query round trips,
  // and the failure-containment events — replies dropped because their op
  // already completed, links closed and re-dialed after a desync, and ops
  // failed at their per-op deadline.
  Gauge& fanout_inflight;
  Histogram& fanout_shard_rtt_ns;
  Counter& fanout_stale_drops;
  Counter& fanout_redials;
  Counter& fanout_deadline_expired;

  // Batch scheduler.
  Counter& batch_requests;
  Counter& batch_batches;
  Histogram& batch_size;           // batch fill distribution
  Histogram& batch_queue_wait_ns;  // submit → batch formation
  Gauge& batch_queue_depth;        // requests awaiting batch formation
  Counter& batch_shed;             // admissions refused (queue over limit)
  Counter& batch_expired;          // co-riders failed at their deadline
  // Why each batch closed: hit max_batch, had to start to make a rider's
  // deadline, or simply waited out max_wait.
  Counter& batch_full_closes;
  Counter& batch_deadline_closes;
  Counter& batch_wait_closes;
  // Retired: nothing increments it since the expand/scan pipeline was
  // deleted, so it reads 0. Kept only because the benchmark harness
  // still reads it; drop it once that read is gone.
  Counter& batch_pipeline_stall_ns;

  // Blob-database scans. ns/record = busy_ns / rows_scanned; average
  // rows per pass (≈ rows per shard) = rows_scanned / passes.
  Counter& scan_rows_scanned;
  Counter& scan_passes;
  Counter& scan_busy_ns;
  Histogram& scan_pass_ns;

  // DPF expansion (full-domain or shard sub-tree), per evaluation.
  Histogram& dpf_expand_ns;

  // Thread pool. A "stolen" chunk ran on a pool worker rather than the
  // submitting thread — the work-handoff rate.
  Counter& pool_parallel_ops;
  Counter& pool_chunks;
  Counter& pool_chunks_stolen;

  // Epoll reactor (src/net/reactor.cc). One loop thread multiplexes every
  // reactor-served connection; these expose its health: how many sockets
  // it owns, how much reply data sits queued behind slow readers, how
  // often writes could not complete in one syscall, and how long one loop
  // iteration's work takes (the loop must stay fast — a slow iteration
  // delays every connection).
  Gauge& reactor_connections;
  Counter& reactor_frames;
  Counter& reactor_wakeups;
  Counter& reactor_partial_writes;
  Counter& reactor_timer_closes;
  Gauge& reactor_send_backlog_bytes;
  Histogram& reactor_loop_ns;

  // TCP transport.
  Counter& net_bytes_sent;
  Counter& net_bytes_received;
  Counter& net_accepts;
  Counter& net_accept_errors;
  Counter& net_read_errors;
  Counter& net_write_errors;
  Counter& net_eintr_retries;

  // ZLTP client sessions: per-direction traffic accounting (the paper's
  // communication-cost numbers — bench/bench_communication.cc reads these)
  // and the resilience layer's recovery events.
  Counter& client_bytes_sent;
  Counter& client_bytes_received;
  Counter& client_requests;
  Counter& client_retries;      // attempts re-issued with fresh DPF shares
  Counter& client_redials;      // transports re-dialed + hello re-run
  Counter& client_op_timeouts;  // operations that hit DEADLINE_EXCEEDED

  // Content stores.
  Gauge& store_records;
};

// The default-registry metric set (lazily registered, never destroyed).
Metrics& M();

}  // namespace lw::obs
