// lwbench: one workload of the Lightweb end-to-end benchmark per run.
//
//   lwbench --workload browse|fetch_1g|sharded|publish --seed N
//           --seconds S --trace 0|1 [--out DIR]
//
// perfbench/run.py builds this binary and is the documented entry point;
// see perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "trace.h"

namespace lwbench {
namespace {

constexpr double kWarmupSeconds = 1.0;

// Stream labels for RunPhase: each phase draws its own inputs.
constexpr std::uint64_t kWarmupStream = 1;
constexpr std::uint64_t kUntracedStream = 2;
constexpr std::uint64_t kTracedStream = 3;

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
};

// The per-layer table of a traced phase (README.md, "Per-layer metrics").
void AddPerLayer(Report& r, const WorkloadSpec& spec, Deployment& d,
                 const PhaseResult& traced, double untraced_p50_ms,
                 const RegSample& reg, std::uint64_t gets,
                 std::uint64_t retries, std::uint64_t visits,
                 std::uint64_t code_misses, int nproc) {
  const auto L = MetricKind::kPerLayer;
  const TraceTotals c = ClientTotals();
  const ServerTotals s = ServerTraceTotals();
  const double ops = static_cast<double>(c.ops);
  const double g = static_cast<double>(gets);
  // A server-side GET: one key share answered by one logical server.
  const std::uint64_t shares = reg.server_requests + reg.frontend_requests;
  const double sh = static_cast<double>(shares);
  const double op_mean_ms = Div(static_cast<double>(c.op_ns) / 1e6, ops);

  const double lightweb_self_ms =
      Div(static_cast<double>(c.lightweb_self_ns) / 1e6,
          static_cast<double>(c.lightweb_ops));
  r.Add("lightweb.visit_self_ms", lightweb_self_ms, "ms", c.lightweb_ops, L);
  r.Add("lightweb.code_miss_share",
        Div(static_cast<double>(code_misses), static_cast<double>(visits)),
        "share", visits, L);

  const double pre_ms = Div(static_cast<double>(c.pre_send_ns) / 1e6, ops);
  const double post_ms = Div(static_cast<double>(c.post_recv_ns) / 1e6, ops);
  r.Add("zltp.client.pre_send_ms", pre_ms, "ms", c.calls, L);
  r.Add("zltp.client.post_recv_ms", post_ms, "ms", c.calls, L);
  r.Add("zltp.client.wire_wait_ms",
        Div(static_cast<double>(c.wire_ns) / 1e6, ops), "ms", c.calls, L);
  r.Add("zltp.client.retries", static_cast<double>(retries), "count", gets, L);

  r.Add("net.frames_per_get", Div(static_cast<double>(reg.reactor_frames), g),
        "count", reg.reactor_frames, L);
  r.Add("net.wakeups_per_get",
        Div(static_cast<double>(reg.reactor_wakeups), g), "count",
        reg.reactor_wakeups, L);
  r.Add("net.reactor_busy_share",
        Div(static_cast<double>(reg.reactor_loop_ns.sum) / 1e9,
            traced.wall_s),
        "share", reg.reactor_loop_ns.count, L);
  r.Add("net.partial_writes", static_cast<double>(reg.reactor_partial_writes),
        "count", reg.reactor_frames, L);

  // A front-end records its requests in the trace ring only, not in the
  // request histogram; its traces' totals stand in there.
  if (reg.server_request_ns.count > 0) {
    r.Add("zltp.server.request_ms", reg.server_request_ns.MeanMs(), "ms",
          reg.server_request_ns.count, L);
  } else {
    r.Add("zltp.server.request_ms",
          Div(static_cast<double>(s.total_ns) / 1e6,
              static_cast<double>(s.traces)),
          "ms", s.traces, L);
  }
  r.Add("zltp.server.decode_ms",
        Div(static_cast<double>(s.decode_ns) / 1e6,
            static_cast<double>(s.traces)),
        "ms", s.traces, L);
  r.Add("zltp.server.reply_ms",
        Div(static_cast<double>(s.reply_ns) / 1e6,
            static_cast<double>(s.traces)),
        "ms", s.traces, L);

  r.Add("zltp.batch.queue_wait_ms", reg.batch_queue_wait_ns.MeanMs(), "ms",
        reg.batch_queue_wait_ns.count, L);
  r.Add("zltp.batch.size_mean",
        Div(static_cast<double>(reg.batch_size.sum),
            static_cast<double>(reg.batch_size.count)),
        "count", reg.batch_size.count, L);
  r.Add("zltp.batch.full_close_share",
        Div(static_cast<double>(reg.batch_full_closes),
            static_cast<double>(reg.batch_batches)),
        "share", reg.batch_batches, L);
  r.Add("zltp.batch.stall_ms_per_batch",
        Div(static_cast<double>(reg.batch_pipeline_stall_ns) / 1e6,
            static_cast<double>(reg.batch_batches)),
        "ms", reg.batch_batches, L);
  r.Add("zltp.batch.shed", static_cast<double>(reg.batch_shed), "count",
        reg.batch_requests, L);
  r.Add("zltp.batch.expired", static_cast<double>(reg.batch_expired),
        "count", reg.batch_requests, L);

  // One expansion is a whole batch at a batching server, one sub-tree at
  // a shard data server.
  r.Add("dpf.expand_ms_per_batch", reg.dpf_expand_ns.MeanMs(), "ms",
        reg.dpf_expand_ns.count, L);
  r.Add("dpf.expand_ms_per_get",
        Div(static_cast<double>(reg.dpf_expand_ns.sum) / 1e6, sh), "ms",
        shares, L);

  const double scan_ms_per_pass =
      Div(static_cast<double>(reg.scan_busy_ns) / 1e6,
          static_cast<double>(reg.scan_passes));
  r.Add("pir.scan_ms_per_pass", scan_ms_per_pass, "ms", reg.scan_passes, L);
  r.Add("pir.scan_ms_per_get",
        Div(static_cast<double>(reg.scan_busy_ns) / 1e6, sh), "ms", shares,
        L);
  r.Add("pir.rows_per_pass",
        Div(static_cast<double>(reg.scan_rows),
            static_cast<double>(reg.scan_passes)),
        "count", reg.scan_passes, L);
  r.Add("pir.scan_gib_per_s",
        Div(static_cast<double>(reg.scan_rows) *
                static_cast<double>(spec.record_size) / (1024.0 * 1024 * 1024),
            static_cast<double>(reg.scan_busy_ns) / 1e9),
        "GiB/s", reg.scan_passes, L);

  r.Add("util.pool.chunks_per_get",
        Div(static_cast<double>(reg.pool_chunks), sh), "count",
        reg.pool_chunks, L);
  r.Add("util.pool.steal_share",
        Div(static_cast<double>(reg.pool_chunks_stolen),
            static_cast<double>(reg.pool_chunks)),
        "share", reg.pool_chunks, L);

  const double shard_rtt_ms = reg.fanout_shard_rtt_ns.MeanMs();
  r.Add("zltp.frontend.shard_rtt_ms", shard_rtt_ms, "ms",
        reg.fanout_shard_rtt_ns.count, L);
  r.Add("zltp.frontend.shard_requests_per_get",
        Div(static_cast<double>(reg.shard_requests),
            static_cast<double>(reg.frontend_requests)),
        "count", reg.frontend_requests, L);
  r.Add("zltp.frontend.stale_drops",
        static_cast<double>(reg.fanout_stale_drops), "count",
        reg.frontend_requests, L);
  r.Add("zltp.frontend.deadline_expired",
        static_cast<double>(reg.fanout_deadline_expired), "count",
        reg.frontend_requests, L);

  const double attributed =
      Div(static_cast<double>(c.lightweb_self_ns + c.pre_send_ns +
                              c.post_recv_ns + c.server_on_path_ns) /
              1e6,
          ops);
  r.Add("unattributed_ms", op_mean_ms - attributed, "ms", c.ops, L);
  r.Add("proc.cpu_util",
        Div(traced.cpu_s, traced.wall_s * static_cast<double>(nproc)),
        "share", c.ops, L);
  const double traced_p50 = Quantile(traced.op_ms, 0.5);
  r.Add("trace_overhead_pct",
        untraced_p50_ms > 0 ? (traced_p50 / untraced_p50_ms - 1.0) * 100.0
                            : 0.0,
        "%", traced.attempted, L);
  d.AddPhaseMetrics(r, /*traced=*/true);
  r.Add("traced.op_ms_mean", op_mean_ms, "ms", c.ops, MetricKind::kInfo);
  r.Add("traced.server_on_path_ms",
        Div(static_cast<double>(c.server_on_path_ns) / 1e6, ops), "ms", c.ops,
        MetricKind::kInfo);
  r.Add("traced.server_traces_missed", static_cast<double>(s.missed), "count",
        s.traces, MetricKind::kInfo);
}

}  // namespace

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  const std::function<std::unique_ptr<Deployment>()> setup = [&] {
    return spec.setup(args, args.trace);
  };
  Timed<Deployment> timed = SetUpRepeated<Deployment>(setup);
  if (timed.value == nullptr) {
    std::fprintf(stderr, "lwbench: %s: set-up failed\n", spec.name);
    return 1;
  }
  Deployment& d = *timed.value;
  const std::vector<Client*> clients = d.clients();
  Totals totals;
  Report report;

  d.StartPhase();
  totals.Add(RunPhase(clients, kWarmupSeconds, args.seed, kWarmupStream,
                      spec.op_name));
  d.StopPhase();

  // The untraced phase: the whole run, or its first half when traced.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  EndToEnd e2e;
  const lw::zltp::TrafficCounters traffic0 = SumTraffic(clients);
  d.StartPhase();
  e2e.phase = RunPhase(clients, untraced_s, args.seed, kUntracedStream,
                       spec.op_name);
  d.StopPhase();
  const lw::zltp::TrafficCounters traffic1 = SumTraffic(clients);
  e2e.gets = traffic1.requests - traffic0.requests;
  e2e.bytes = traffic1.bytes_sent + traffic1.bytes_received -
              traffic0.bytes_sent - traffic0.bytes_received;
  totals.Add(e2e.phase);
  AddEndToEnd(report, e2e, timed.median_s, timed.samples);
  d.AddPhaseMetrics(report, /*traced=*/false);

  if (args.trace) {
    const lw::zltp::TrafficCounters traffic2 = SumTraffic(clients);
    const std::uint64_t visits0 = d.visits(), misses0 = d.code_misses();
    const RegSample reg0 = ReadRegistry();
    ResetServerTraces();
    SetTracing(true);
    d.StartPhase();
    const PhaseResult traced = RunPhase(clients, args.seconds / 2, args.seed,
                                        kTracedStream, spec.op_name);
    d.StopPhase();
    SetTracing(false);
    PollServerTraces(/*force=*/true);
    totals.Add(traced);
    const RegSample reg = Delta(ReadRegistry(), reg0);
    const lw::zltp::TrafficCounters traffic3 = SumTraffic(clients);
    AddPerLayer(report, spec, d, traced, Quantile(e2e.phase.op_ms, 0.5), reg,
                traffic3.requests - traffic2.requests,
                traffic3.retries - traffic2.retries,
                d.visits() - visits0, d.code_misses() - misses0,
                RecordHost().nproc);
    const std::string spans = args.out_dir + "/" + args.workload + "-seed" +
                              std::to_string(args.seed) + ".spans.jsonl";
    const std::size_t n = WriteSpans(spans);
    report.Note("spans", std::to_string(n) + " records in " + spans);
  }

  report.Emit(args, RecordHost(), totals.attempted, totals.failed);
  timed.value.reset();
  return 0;
}

}  // namespace lwbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lwbench --workload browse|fetch_1g|sharded|publish "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lwbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  lwbench::WorkloadSpec spec;
  if (args.workload == "browse") {
    spec = lwbench::BrowseWorkload();
  } else if (args.workload == "fetch_1g") {
    spec = lwbench::FetchWorkload();
  } else if (args.workload == "sharded") {
    spec = lwbench::ShardedWorkload();
  } else if (args.workload == "publish") {
    spec = lwbench::PublishWorkload();
  } else {
    return Usage();
  }
  return lwbench::RunWorkload(args, spec);
}
