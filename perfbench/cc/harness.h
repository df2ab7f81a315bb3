// Shared machinery of the Lightweb end-to-end benchmark: the closed-loop
// runner, statistics, registry deltas, host record and the result table.
//
// Each workload (browse.cc, fetch.cc, sharded.cc, publish.cc) builds a
// real deployment — servers on one epoll reactor over loopback TCP, as
// tools/lightweb_serve wires them — and hands the runner one Client per
// load-generator thread. The runner times every op, and the workload
// verifies every payload it gets back.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/rand.h"
#include "util/status.h"
#include "zltp/client.h"

namespace lw::obs {
class Histogram;
}

namespace lwbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A generator seeded from the run seed and a stream label, so each input
// stream (setup, client 0, client 1, publisher) is reproducible on its own.
lw::Rng StreamRng(std::uint64_t seed, std::uint64_t stream);

// Deterministic pseudo-random bytes for (seed, a, b).
lw::Bytes DerivedBytes(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::size_t n);

// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);

// ------------------------------------------------------------ registry

struct HistSum {
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  double MeanMs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / 1e6 / count;
  }
};
HistSum ReadHist(const lw::obs::Histogram& h);

// The obs registry values the per-layer table reads. Exact sums and
// counts only; the histograms' buckets are too coarse for quantiles.
struct RegSample {
  std::uint64_t server_requests = 0;
  HistSum server_request_ns;
  std::uint64_t frontend_requests = 0;
  std::uint64_t shard_requests = 0;
  HistSum fanout_shard_rtt_ns;
  std::uint64_t fanout_stale_drops = 0;
  std::uint64_t fanout_deadline_expired = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t batch_batches = 0;
  HistSum batch_size;
  HistSum batch_queue_wait_ns;
  std::uint64_t batch_shed = 0;
  std::uint64_t batch_expired = 0;
  std::uint64_t batch_full_closes = 0;
  std::uint64_t batch_pipeline_stall_ns = 0;
  std::uint64_t scan_rows = 0;
  std::uint64_t scan_passes = 0;
  std::uint64_t scan_busy_ns = 0;
  HistSum dpf_expand_ns;
  std::uint64_t pool_chunks = 0;
  std::uint64_t pool_chunks_stolen = 0;
  std::uint64_t reactor_frames = 0;
  std::uint64_t reactor_wakeups = 0;
  std::uint64_t reactor_partial_writes = 0;
  HistSum reactor_loop_ns;
};

RegSample ReadRegistry();
RegSample Delta(const RegSample& later, const RegSample& earlier);

// ------------------------------------------------------------ process

double ProcessCpuSeconds();  // user + system, all threads
double PeakRssMiB();

struct HostRecord {
  int nproc = 0;
  std::string cpu_model;
  std::string xor_tier;
  bool aes_ni = false;
  std::uint64_t hugepage_advised_bytes = 0;
};
HostRecord RecordHost();

// ------------------------------------------------------------ runner

// One load-generator thread's view of the deployment. RunOp performs one
// closed-loop op (a page load, a GET, an 8-key batch), verifies what came
// back, and returns whether it succeeded.
class Client {
 public:
  // `sessions` are the zltp sessions this client's ops go through.
  explicit Client(std::vector<const lw::zltp::Session*> sessions)
      : sessions_(std::move(sessions)) {}
  virtual ~Client() = default;
  virtual bool RunOp(lw::Rng& rng) = 0;

  // Client-side traffic so far, summed over the client's sessions. Read
  // it on the thread that runs the ops, or after that thread has joined.
  lw::zltp::TrafficCounters traffic() const;

 private:
  std::vector<const lw::zltp::Session*> sessions_;
};

// Traffic summed over every client of a deployment.
lw::zltp::TrafficCounters SumTraffic(const std::vector<Client*>& clients);

struct PhaseResult {
  // One entry per completed op, successful or not: latency, when it ended
  // (seconds into the phase), whether it succeeded and the private GETs it
  // completed (dummies and code fetches included).
  std::vector<double> op_ms;
  std::vector<double> op_end_s;
  std::vector<char> op_ok;
  std::vector<std::uint32_t> op_gets;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  // Share of the host's CPU time stolen by the hypervisor during the phase
  // (/proc/stat): a diagnostic for runs slowed by neighbours.
  double steal_share = 0;
  // The phase cut into kWindows equal-time windows: when each ended
  // (seconds into the phase, as sampled), its steal share and its process
  // CPU seconds.
  static constexpr std::size_t kWindows = 20;
  std::vector<double> window_end_s;
  std::vector<double> window_steal;
  std::vector<double> window_cpu_s;
};

// Runs every client in its own thread (the first on the calling thread)
// until `seconds` elapse. `stream` separates the input streams of phases.
PhaseResult RunPhase(const std::vector<Client*>& clients, double seconds,
                     std::uint64_t seed, std::uint64_t stream,
                     const char* op_name);

// ------------------------------------------------------------ output

// End-to-end metrics form the last line of an untraced run, per-layer
// metrics that of a traced run; info metrics are printed but in neither.
enum class MetricKind { kEndToEnd, kPerLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
  MetricKind kind = MetricKind::kInfo;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::uint64_t samples, MetricKind kind);
  void Note(std::string key, std::string value);  // free-form record

  // Human table on stdout, then the result file, then the one-line JSON
  // result as the last line of stdout.
  void Emit(const Args& args, const HostRecord& host, std::uint64_t attempted,
            std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// Median of repeated set-ups: a deployment is built at least 3 times, and
// more while the total stays under a second (up to 51), so a cheap set-up
// is timed often enough for a steady median. Every instance but the last
// is torn down again, untimed.
template <typename T>
struct Timed {
  std::unique_ptr<T> value;
  double median_s = 0;
  int samples = 0;
};

template <typename T>
Timed<T> SetUpRepeated(const std::function<std::unique_ptr<T>()>& setup) {
  constexpr std::size_t kMin = 3, kMax = 51;
  constexpr double kBudgetSeconds = 1.0;
  Timed<T> out;
  std::vector<double> times;
  double total = 0;
  while (times.size() < kMin ||
         (total < kBudgetSeconds && times.size() < kMax) ||
         times.size() % 2 == 0) {
    out.value.reset();
    const std::uint64_t t0 = NowNs();
    out.value = setup();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += times.back();
    if (out.value == nullptr) break;
  }
  out.median_s = Quantile(times, 0.5);
  out.samples = static_cast<int>(times.size());
  return out;
}

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"), from one untraced phase. Latency, rates and CPU per GET
// are taken over the phase's measured windows: every window whose CPU
// steal share is at most kQuietSteal, or every window when fewer than a
// quarter of them are that quiet. A burst of interference from
// neighbours on a shared host is left out that way; on a quiet host, and
// on one loaded throughout, the whole phase counts. `e2e.measured_share`
// reports the share of the phase that counted. Bytes per GET, set-up and
// memory always use the whole phase.
constexpr double kQuietSteal = 0.05;
struct EndToEnd {
  PhaseResult phase;
  std::uint64_t gets = 0;   // completed private GETs, dummies included
  std::uint64_t bytes = 0;  // client bytes sent + received
};
void AddEndToEnd(Report& report, const EndToEnd& e2e, double setup_s,
                 int setup_samples);

// ------------------------------------------------------------ workloads

// One set-up instance of a workload: servers, reactor, sessions and the
// load-generator clients. Destroying it tears everything down (reactor
// stopped first, then servers, then the reactor object).
class Deployment {
 public:
  virtual ~Deployment() = default;
  // Every session of the deployment belongs to one of its clients.
  virtual std::vector<Client*> clients() = 0;
  // Background load beside the closed loop (the publisher), started and
  // stopped around each measured phase; the default has none.
  virtual void StartPhase() {}
  virtual void StopPhase() {}
  // Workload-specific metrics of the phase that just stopped.
  virtual void AddPhaseMetrics(Report&, bool /*traced*/) {}
  // lightweb Browser counters; zero where no Browser runs.
  virtual std::uint64_t visits() const { return 0; }
  virtual std::uint64_t code_misses() const { return 0; }
};

// Reports a failed set-up step on stderr; returns no deployment.
std::unique_ptr<Deployment> SetupFailed(const char* workload, const char* what,
                                        const lw::Status& status);

struct WorkloadSpec {
  const char* name;
  const char* op_name;       // what one closed-loop op is
  std::size_t record_size;   // of the store the scan metrics describe
  // Builds a deployment; `traced` installs the tracing decorators.
  std::function<std::unique_ptr<Deployment>(const Args&, bool traced)> setup;
};

int RunWorkload(const Args& args, const WorkloadSpec& spec);

WorkloadSpec BrowseWorkload();
WorkloadSpec FetchWorkload();
WorkloadSpec ShardedWorkload();
WorkloadSpec PublishWorkload();

}  // namespace lwbench
