// E1 — §5.1 "Server computation" microbenchmark.
//
// Paper (on an AWS c5.large, 1 GiB shard, DPF output domain 2^22, 4 KiB
// dummy records): 167 ms of computation per request, split into ~64 ms of
// DPF evaluation and ~103 ms of data scan.
//
// This bench measures the same two components on this machine at the
// paper's exact configuration (and smaller ones for the curve), then prints
// the reproduction table. Absolute times differ with hardware; the claims
// to check are (a) scan time scales with stored bytes, (b) DPF evaluation
// scales with 2^d, and (c) the two are the same order of magnitude at the
// paper's parameters, with the scan dominating.
//
// Flags (stripped before google-benchmark sees argv):
//   --threads=N  run the reproduction table through an N-thread pool and
//                print a thread-scaling curve (1 = serial, 0 = all cores)
//   --smoke      64 MiB shard / 1 iteration — CI smoke leg
//   --json=PATH  archive measured rows as JSON
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "crypto/aes128.h"

namespace lw::bench {
namespace {

constexpr std::size_t kRecordSize = 4096;

BenchFlags g_flags;
JsonRecorder g_json;

// DPF full-domain evaluation cost vs domain size (the "64 ms" component).
void BM_DpfFullEval(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const dpf::KeyPair pair = dpf::Generate(123, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpf::EvalFull(pair.key0));
  }
  state.counters["leaves"] = static_cast<double>(std::uint64_t{1} << d);
}
BENCHMARK(BM_DpfFullEval)->Arg(16)->Arg(18)->Arg(20)->Arg(22)
    ->Unit(benchmark::kMicrosecond);

// Data-scan cost vs stored bytes (the "103 ms" component).
void BM_DataScan(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  const int d = 22;
  const pir::BlobDatabase db = BuildShard(d, kRecordSize, records);
  // Scan with a fixed precomputed selection vector: isolates the scan.
  const pir::QueryKeys q = pir::MakeIndexQuery(1, d);
  const dpf::BitVector bits = dpf::EvalFull(q.key0);
  Bytes answer(kRecordSize);
  for (auto _ : state) {
    db.Answer(bits, answer);
    benchmark::DoNotOptimize(answer.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(db.stored_bytes()));
  state.counters["MiB"] =
      static_cast<double>(db.stored_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_DataScan)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// Sharded scan: rows split across workers with private accumulators, then
// a tree reduction (args: records, pool threads).
void BM_DataScanParallel(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  const int d = 22;
  const int threads = static_cast<int>(state.range(1));
  const pir::BlobDatabase db = BuildShard(d, kRecordSize, records);
  const pir::QueryKeys q = pir::MakeIndexQuery(1, d);
  const dpf::BitVector bits = dpf::EvalFull(q.key0);
  ThreadPool pool(threads);
  Bytes answer(kRecordSize);
  for (auto _ : state) {
    db.Answer(bits, answer, &pool);
    benchmark::DoNotOptimize(answer.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(db.stored_bytes()));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_DataScanParallel)
    ->Args({1 << 14, 2})->Args({1 << 14, 4})
    ->Args({1 << 16, 2})->Args({1 << 16, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The raw XOR kernel (the paper's "vector AVX instructions to accelerate
// the data scan").
void BM_XorKernel(benchmark::State& state) {
  Bytes acc(kRecordSize, 0), src(kRecordSize, 0x5a);
  for (auto _ : state) {
    pir::XorBytes(acc.data(), src.data(), kRecordSize);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * kRecordSize);
}
BENCHMARK(BM_XorKernel);

void RecordRequestCost(const std::string& name, const RequestCost& cost,
                       int iters, std::size_t scanned_bytes) {
  g_json.Add(name + "/dpf", iters, cost.dpf_ms * 1e6, 0.0);
  g_json.Add(name + "/scan", iters, cost.scan_ms * 1e6,
             cost.scan_ms > 0
                 ? static_cast<double>(scanned_bytes) / (cost.scan_ms / 1e3)
                 : 0.0);
}

void PrintReproductionTable() {
  std::printf("\n=== E1: §5.1 server computation — reproduction ===\n");
  std::printf("AES-NI fast path: %s\n",
              crypto::Aes128::HasHardwareSupport() ? "yes" : "no");

  // Paper configuration: 1 GiB of 4 KiB dummy records, domain 2^22. The
  // smoke leg shrinks to 64 MiB so CI finishes in seconds.
  const int d = 22;
  const std::size_t shard_bytes =
      g_flags.smoke ? (64ull << 20) : (1ull << 30);
  const std::size_t records = shard_bytes / kRecordSize;
  const int iters = g_flags.smoke ? 1 : 5;
  std::printf("building %.0f MiB shard (%zu records of 4 KiB, domain 2^22",
              shard_bytes / (1024.0 * 1024.0), records);
  std::printf(", threads=%d)...\n", g_flags.threads);
  const pir::BlobDatabase db = BuildShard(d, kRecordSize, records);
  const std::unique_ptr<ThreadPool> pool = MakeBenchPool(g_flags);
  const RequestCost cost = MeasureRequests(db, d, iters, 42, pool.get());
  RecordRequestCost("server_compute/d22/threads=" +
                        std::to_string(g_flags.threads),
                    cost, iters, db.stored_bytes());

  PrintRule();
  std::printf("%-34s %10s %10s %10s\n", "configuration", "dpf(ms)",
              "scan(ms)", "total(ms)");
  PrintRule();
  std::printf("%-34s %10.1f %10.1f %10.1f\n",
              "paper: c5.large, 1GiB, d=22", 64.0, 103.0, 167.0);
  const std::string ours_label =
      "ours:  this host, t=" + std::to_string(g_flags.threads);
  std::printf("%-34s %10.1f %10.1f %10.1f\n", ours_label.c_str(),
              cost.dpf_ms, cost.scan_ms, cost.total_ms());
  PrintRule();
  std::printf("shape checks:\n");
  std::printf("  scan dominates DPF eval: %s (scan/dpf = %.2f; paper 1.61)\n",
              cost.scan_ms > cost.dpf_ms ? "yes" : "NO",
              cost.scan_ms / cost.dpf_ms);
  std::printf("  scan throughput: %.1f GiB/s\n",
              (static_cast<double>(shard_bytes) / (1024.0 * 1024.0 * 1024.0)) /
                  (cost.scan_ms / 1000.0));
  std::printf("  per-request compute at two servers: %.1f ms (paper 334)\n\n",
              2 * cost.total_ms());

  // Thread-scaling curve on the same shard: per-request time vs pool size.
  // Speedup is only expected on multicore hosts; on 1 vCPU the curve is
  // flat (the pool degrades to inline execution plus scheduling noise).
  std::printf("thread scaling (same shard, %d measured request%s/point):\n",
              iters, iters == 1 ? "" : "s");
  std::printf("%8s %10s %10s %10s %10s\n", "threads", "dpf(ms)", "scan(ms)",
              "total(ms)", "speedup");
  double serial_total = 0;
  std::vector<int> sweep = {1, 2, 4};
  if (g_flags.threads > 4) sweep.push_back(g_flags.threads);
  for (const int t : sweep) {
    ThreadPool sweep_pool(t);
    const RequestCost c =
        MeasureRequests(db, d, iters, 42, t == 1 ? nullptr : &sweep_pool);
    if (t == 1) serial_total = c.total_ms();
    RecordRequestCost("server_compute/scaling/threads=" + std::to_string(t),
                      c, iters, db.stored_bytes());
    std::printf("%8d %10.1f %10.1f %10.1f %9.2fx\n", t, c.dpf_ms, c.scan_ms,
                c.total_ms(),
                c.total_ms() > 0 ? serial_total / c.total_ms() : 0.0);
  }
  std::printf("(hardware_concurrency() = %d on this host)\n\n",
              ThreadPool::HardwareThreads());
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  lw::bench::g_flags = lw::bench::ParseBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  if (!lw::bench::g_flags.json_path.empty()) {
    if (!lw::bench::g_json.WriteTo(lw::bench::g_flags.json_path)) return 1;
    std::printf("wrote %s\n", lw::bench::g_flags.json_path.c_str());
  }
  return 0;
}
