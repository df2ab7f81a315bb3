#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "pir/xor_kernel.h"
#include "trace.h"
#include "util/alloc.h"

namespace lwbench {

lw::Rng StreamRng(std::uint64_t seed, std::uint64_t stream) {
  return lw::Rng(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                 0x94d049bb133111ebULL);
}

lw::Bytes DerivedBytes(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                       std::size_t n) {
  lw::Rng rng(seed ^ (a * 0x100000001b3ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL) ^
              0x2545f4914f6cdd1dULL);
  lw::Bytes out(n);
  rng.Fill(lw::MutableByteSpan(out.data(), out.size()));
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// ------------------------------------------------------------ registry

HistSum ReadHist(const lw::obs::Histogram& h) {
  HistSum out;
  out.sum = h.sum();
  for (std::uint64_t c : h.counts()) out.count += c;
  return out;
}

namespace {

HistSum Sub(const HistSum& a, const HistSum& b) {
  return {a.sum - b.sum, a.count - b.count};
}

}  // namespace

RegSample ReadRegistry() {
  const lw::obs::Metrics& m = lw::obs::M();
  RegSample s;
  s.server_requests = m.server_requests.Value();
  s.server_request_ns = ReadHist(m.server_request_ns);
  s.frontend_requests = m.frontend_requests.Value();
  s.shard_requests = m.shard_requests.Value();
  s.fanout_shard_rtt_ns = ReadHist(m.fanout_shard_rtt_ns);
  s.fanout_stale_drops = m.fanout_stale_drops.Value();
  s.fanout_deadline_expired = m.fanout_deadline_expired.Value();
  s.batch_requests = m.batch_requests.Value();
  s.batch_batches = m.batch_batches.Value();
  s.batch_size = ReadHist(m.batch_size);
  s.batch_queue_wait_ns = ReadHist(m.batch_queue_wait_ns);
  s.batch_shed = m.batch_shed.Value();
  s.batch_expired = m.batch_expired.Value();
  s.batch_full_closes = m.batch_full_closes.Value();
  s.batch_pipeline_stall_ns = m.batch_pipeline_stall_ns.Value();
  s.scan_rows = m.scan_rows_scanned.Value();
  s.scan_passes = m.scan_passes.Value();
  s.scan_busy_ns = m.scan_busy_ns.Value();
  s.dpf_expand_ns = ReadHist(m.dpf_expand_ns);
  s.pool_chunks = m.pool_chunks.Value();
  s.pool_chunks_stolen = m.pool_chunks_stolen.Value();
  s.reactor_frames = m.reactor_frames.Value();
  s.reactor_wakeups = m.reactor_wakeups.Value();
  s.reactor_partial_writes = m.reactor_partial_writes.Value();
  s.reactor_loop_ns = ReadHist(m.reactor_loop_ns);
  return s;
}

RegSample Delta(const RegSample& a, const RegSample& b) {
  RegSample d;
  d.server_requests = a.server_requests - b.server_requests;
  d.server_request_ns = Sub(a.server_request_ns, b.server_request_ns);
  d.frontend_requests = a.frontend_requests - b.frontend_requests;
  d.shard_requests = a.shard_requests - b.shard_requests;
  d.fanout_shard_rtt_ns = Sub(a.fanout_shard_rtt_ns, b.fanout_shard_rtt_ns);
  d.fanout_stale_drops = a.fanout_stale_drops - b.fanout_stale_drops;
  d.fanout_deadline_expired =
      a.fanout_deadline_expired - b.fanout_deadline_expired;
  d.batch_requests = a.batch_requests - b.batch_requests;
  d.batch_batches = a.batch_batches - b.batch_batches;
  d.batch_size = Sub(a.batch_size, b.batch_size);
  d.batch_queue_wait_ns = Sub(a.batch_queue_wait_ns, b.batch_queue_wait_ns);
  d.batch_shed = a.batch_shed - b.batch_shed;
  d.batch_expired = a.batch_expired - b.batch_expired;
  d.batch_full_closes = a.batch_full_closes - b.batch_full_closes;
  d.batch_pipeline_stall_ns =
      a.batch_pipeline_stall_ns - b.batch_pipeline_stall_ns;
  d.scan_rows = a.scan_rows - b.scan_rows;
  d.scan_passes = a.scan_passes - b.scan_passes;
  d.scan_busy_ns = a.scan_busy_ns - b.scan_busy_ns;
  d.dpf_expand_ns = Sub(a.dpf_expand_ns, b.dpf_expand_ns);
  d.pool_chunks = a.pool_chunks - b.pool_chunks;
  d.pool_chunks_stolen = a.pool_chunks_stolen - b.pool_chunks_stolen;
  d.reactor_frames = a.reactor_frames - b.reactor_frames;
  d.reactor_wakeups = a.reactor_wakeups - b.reactor_wakeups;
  d.reactor_partial_writes =
      a.reactor_partial_writes - b.reactor_partial_writes;
  d.reactor_loop_ns = Sub(a.reactor_loop_ns, b.reactor_loop_ns);
  return d;
}

// ------------------------------------------------------------ process

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user .. steal
  double total = 0;
  for (double& x : v) {
    stat >> x;
    total += x;
  }
  return {v[7], total};
}

}  // namespace

HostRecord RecordHost() {
  HostRecord h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(colon + 1);
        h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  h.xor_tier = lw::pir::XorTierName(lw::pir::ActiveXorTier());
  h.aes_ni = __builtin_cpu_supports("aes");
  h.hugepage_advised_bytes = lw::HugepageAdvisedBytes();
  return h;
}

// ------------------------------------------------------------ runner

namespace {

void AddTraffic(lw::zltp::TrafficCounters& sum,
                const lw::zltp::TrafficCounters& t) {
  sum.bytes_sent += t.bytes_sent;
  sum.bytes_received += t.bytes_received;
  sum.requests += t.requests;
  sum.retries += t.retries;
  sum.redials += t.redials;
}

}  // namespace

lw::zltp::TrafficCounters Client::traffic() const {
  lw::zltp::TrafficCounters sum;
  for (const lw::zltp::Session* s : sessions_) AddTraffic(sum, s->traffic());
  return sum;
}

lw::zltp::TrafficCounters SumTraffic(const std::vector<Client*>& clients) {
  lw::zltp::TrafficCounters sum;
  for (const Client* c : clients) AddTraffic(sum, c->traffic());
  return sum;
}

std::unique_ptr<Deployment> SetupFailed(const char* workload, const char* what,
                                        const lw::Status& status) {
  std::fprintf(stderr, "%s: %s: %s\n", workload, what,
               status.ToString().c_str());
  return nullptr;
}

PhaseResult RunPhase(const std::vector<Client*>& clients, double seconds,
                     std::uint64_t seed, std::uint64_t stream,
                     const char* op_name) {
  struct PerThread {
    std::vector<double> op_ms;
    std::vector<double> op_end_s;
    std::vector<char> op_ok;
    std::vector<std::uint32_t> op_gets;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<PerThread> per(clients.size());
  const bool traced = TracingOn();
  const std::uint64_t start = NowNs();
  const std::uint64_t stop =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  const double cpu0 = ProcessCpuSeconds();
  const auto jiffies0 = CpuJiffies();

  // Samples steal and process CPU at each window boundary.
  PhaseResult r;
  const double window_s = seconds / static_cast<double>(PhaseResult::kWindows);
  std::thread sampler([&] {
    auto last = jiffies0;
    double last_cpu = cpu0;
    for (std::size_t w = 1; w <= PhaseResult::kWindows; ++w) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(window_s * 1e9 * w);
      const std::uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const auto jiffies = CpuJiffies();
      const double cpu = ProcessCpuSeconds();
      r.window_end_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
      const double total = jiffies.second - last.second;
      r.window_steal.push_back(
          total > 0 ? (jiffies.first - last.first) / total : 0);
      r.window_cpu_s.push_back(cpu - last_cpu);
      last = jiffies;
      last_cpu = cpu;
    }
  });

  const auto loop = [&](std::size_t i) {
    lw::Rng rng = StreamRng(seed, stream * 16 + i);
    PerThread& out = per[i];
    out.op_ms.reserve(1 << 16);
    out.op_end_s.reserve(1 << 16);
    out.op_ok.reserve(1 << 16);
    out.op_gets.reserve(1 << 16);
    while (NowNs() < stop) {
      const std::uint64_t gets0 = clients[i]->traffic().requests;
      if (traced) BeginOp(op_name);
      const std::uint64_t t0 = NowNs();
      const bool ok = clients[i]->RunOp(rng);
      const std::uint64_t t1 = NowNs();
      out.op_gets.push_back(
          static_cast<std::uint32_t>(clients[i]->traffic().requests - gets0));
      if (traced) {
        EndOp();
        PollServerTraces(/*force=*/false);
      }
      out.op_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      out.op_end_s.push_back(static_cast<double>(t1 - start) / 1e9);
      out.op_ok.push_back(ok ? 1 : 0);
      out.attempted += 1;
      if (!ok) out.failed += 1;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < clients.size(); ++i) {
    threads.emplace_back(loop, i);
  }
  loop(0);
  for (auto& t : threads) t.join();
  sampler.join();

  r.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  const auto jiffies1 = CpuJiffies();
  const double total = jiffies1.second - jiffies0.second;
  r.steal_share = total > 0 ? (jiffies1.first - jiffies0.first) / total : 0;
  for (PerThread& p : per) {
    r.op_ms.insert(r.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
    r.op_end_s.insert(r.op_end_s.end(), p.op_end_s.begin(), p.op_end_s.end());
    r.op_ok.insert(r.op_ok.end(), p.op_ok.begin(), p.op_ok.end());
    r.op_gets.insert(r.op_gets.end(), p.op_gets.begin(), p.op_gets.end());
    r.attempted += p.attempted;
    r.failed += p.failed;
  }
  return r;
}

// ------------------------------------------------------------ output

void Report::Add(std::string name, double value, std::string unit,
                 std::uint64_t samples, MetricKind kind) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), samples, kind});
}

void Report::Note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Emit(const Args& args, const HostRecord& host,
                  std::uint64_t attempted, std::uint64_t failed) const {
  std::printf("\nhost: nproc=%d cpu=\"%s\" xor_tier=%s aes_ni=%s "
              "hugepage_advised_bytes=%llu seed=%llu\n",
              host.nproc, host.cpu_model.c_str(), host.xor_tier.c_str(),
              host.aes_ni ? "yes" : "no",
              static_cast<unsigned long long>(host.hugepage_advised_bytes),
              static_cast<unsigned long long>(args.seed));
  for (const auto& [k, v] : notes_) std::printf("%s: %s\n", k.c_str(), v.c_str());
  std::printf("\n%-36s %16s  %-8s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %16.6g  %-8s %10llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }

  const MetricKind wanted =
      args.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  std::string last = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  std::string all = "{\n  \"workload\": " + JsonString(args.workload) +
                    ",\n  \"seed\": " + std::to_string(args.seed) +
                    ",\n  \"seconds\": " + Num(args.seconds) +
                    ",\n  \"trace\": " + (args.trace ? "1" : "0") +
                    ",\n  \"attempted\": " + std::to_string(attempted) +
                    ",\n  \"failed\": " + std::to_string(failed) +
                    ",\n  \"host\": {\"nproc\": " + std::to_string(host.nproc) +
                    ", \"cpu_model\": " + JsonString(host.cpu_model) +
                    ", \"xor_tier\": " + JsonString(host.xor_tier) +
                    ", \"aes_ni\": " + (host.aes_ni ? "true" : "false") +
                    ", \"hugepage_advised_bytes\": " +
                    std::to_string(host.hugepage_advised_bytes) +
                    ", \"seed\": " + std::to_string(args.seed) + "}" +
                    ",\n  \"notes\": {";
  bool first_note = true;
  for (const auto& [k, v] : notes_) {
    all += (first_note ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first_note = false;
  }
  all += "},\n  \"metrics\": {\n";
  bool first = true, first_all = true;
  for (const Metric& m : metrics_) {
    all += std::string(first_all ? "" : ",\n") + "    " + JsonString(m.name) +
           ": {\"value\": " + Num(m.value) + ", \"unit\": " +
           JsonString(m.unit) + ", \"samples\": " +
           std::to_string(m.samples) + "}";
    first_all = false;
    if (m.kind != wanted) continue;
    last += std::string(first ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + Num(m.value) + ", \"unit\": " +
            JsonString(m.unit) + "}";
    first = false;
  }
  all += "\n  }\n}\n";
  last += "}}";

  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(all.c_str(), f);
    std::fclose(f);
    std::printf("\nresult file: %s\n", path.c_str());
  }
  std::printf("%s\n", last.c_str());
  std::fflush(stdout);
}

void AddEndToEnd(Report& report, const EndToEnd& e2e, double setup_s,
                 int setup_samples) {
  const PhaseResult& p = e2e.phase;
  const std::uint64_t ops = p.attempted;
  const std::size_t windows = p.window_steal.size();

  // Which windows count: the quiet ones, or all when few are quiet.
  std::vector<char> measured(windows, 0);
  std::size_t quiet = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    measured[w] = p.window_steal[w] <= kQuietSteal;
    quiet += measured[w];
  }
  if (quiet * 4 < windows) std::fill(measured.begin(), measured.end(), 1);
  double measured_s = 0, measured_cpu_s = 0, measured_steal = 0;
  std::size_t measured_windows = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    if (!measured[w]) continue;
    const double len = p.window_end_s[w] - (w > 0 ? p.window_end_s[w - 1] : 0);
    measured_s += len;
    measured_cpu_s += p.window_cpu_s[w];
    measured_steal += p.window_steal[w] * len;
    measured_windows += 1;
  }
  measured_steal = measured_s > 0 ? measured_steal / measured_s : 0;

  std::vector<double> lat;
  double measured_ok = 0, measured_gets = 0;
  for (std::size_t i = 0; i < p.op_ms.size(); ++i) {
    // Ops still running when the phase ended fall outside every window.
    const std::size_t w = static_cast<std::size_t>(
        std::upper_bound(p.window_end_s.begin(), p.window_end_s.end(),
                         p.op_end_s[i]) -
        p.window_end_s.begin());
    if (w >= windows || !measured[w]) continue;
    lat.push_back(p.op_ms[i]);
    measured_ok += p.op_ok[i];
    measured_gets += p.op_gets[i];
  }
  const double ops_per_s = measured_s > 0 ? measured_ok / measured_s : 0;
  const double gets_per_s = measured_s > 0 ? measured_gets / measured_s : 0;

  const auto e = MetricKind::kEndToEnd;
  report.Add("op_ms_p50", Quantile(lat, 0.50), "ms", lat.size(), e);
  // Printed, not bounded: on a host with CPU steal its run-to-run spread
  // exceeds any usable bound (README.md, "Bounds").
  report.Add("op_ms_p99", Quantile(lat, 0.99), "ms", lat.size(),
             MetricKind::kInfo);
  report.Add("ops_per_s", ops_per_s, "1/s",
             static_cast<std::uint64_t>(measured_ok), e);
  report.Add("gets_per_s", gets_per_s, "1/s",
             static_cast<std::uint64_t>(measured_gets), e);
  report.Add("cpu_ms_per_get",
             measured_gets > 0 ? measured_cpu_s * 1e3 / measured_gets : 0, "ms",
             static_cast<std::uint64_t>(measured_gets), e);
  report.Add("bytes_per_get",
             e2e.gets > 0 ? static_cast<double>(e2e.bytes) /
                                static_cast<double>(e2e.gets)
                          : 0,
             "B", e2e.gets, e);
  report.Add("setup_s", setup_s, "s",
             static_cast<std::uint64_t>(setup_samples), e);
  report.Add("peak_rss_mib", PeakRssMiB(), "MiB", 1, e);
  report.Add("error_rate",
             ops > 0 ? static_cast<double>(p.failed) / static_cast<double>(ops)
                     : 0,
             "share", ops, MetricKind::kInfo);
  report.Add("e2e.measured_share",
             p.window_end_s.empty() ? 0 : measured_s / p.window_end_s.back(),
             "share", measured_windows, MetricKind::kInfo);
  report.Add("host.cpu_steal_share", p.steal_share, "share", windows,
             MetricKind::kInfo);
  report.Add("host.measured_steal_share", measured_steal, "share",
             measured_windows, MetricKind::kInfo);
  std::string steal_list;
  for (double v : p.window_steal) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%.3f", steal_list.empty() ? "" : " ",
                  v);
    steal_list += buf;
  }
  report.Note("window_steal", steal_list);
}

}  // namespace lwbench
