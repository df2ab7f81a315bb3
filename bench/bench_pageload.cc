// E10 (repo ablation) — page-load pipelining.
//
// A lightweb page view issues fetches_per_page private GETs. Issuing them
// sequentially pays one full round trip + scan per query; the pipelined
// batch (PirSession::PrivateGetBatch, used by the browser through
// BlobChannel::FetchPage) ships all queries before reading responses, and
// the server's per-connection concurrency lets them co-ride one batched
// scan (§5.1). This bench quantifies that design choice end-to-end through
// real ZLTP sessions over loopback TCP to reactor-served servers.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "util/check.h"
#include "util/timer.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::bench {
namespace {

constexpr int kFetchesPerPage = 5;

struct Deployment {
  zltp::PirStore store;
  net::Reactor reactor;  // declared before the servers: outlives them
  zltp::ZltpPirServer server0;
  zltp::ZltpPirServer server1;
  std::uint16_t port0 = 0;
  std::uint16_t port1 = 0;
  std::vector<std::string> titles;

  explicit Deployment(std::size_t pages)
      : store([] {
          zltp::PirStoreConfig c;
          c.domain_bits = 18;
          c.record_size = 1024;
          c.keyword_seed = Bytes(16, 0x18);
          return c;
        }()),
        server0(store, 0),
        server1(store, 1) {
    for (std::size_t i = 0; i < pages; ++i) {
      const std::string title = "site/page" + std::to_string(i);
      if (store.Publish(title, ToBytes("{\"n\":" + std::to_string(i) + "}"))
              .ok()) {
        titles.push_back(title);
      }
    }
    auto listener0 = net::TcpListener::Listen(0);
    auto listener1 = net::TcpListener::Listen(0);
    LW_CHECK(listener0.ok() && listener1.ok());
    port0 = listener0->bound_port();
    port1 = listener1->bound_port();
    LW_CHECK(server0.ServeOnReactor(reactor, std::move(*listener0)).ok());
    LW_CHECK(server1.ServeOnReactor(reactor, std::move(*listener1)).ok());
    LW_CHECK(reactor.Start().ok());
  }

  zltp::PirSession Connect() {
    auto t0 = net::TcpConnect("127.0.0.1", port0);
    auto t1 = net::TcpConnect("127.0.0.1", port1);
    LW_CHECK(t0.ok() && t1.ok());
    auto session = zltp::PirSession::Establish(
        zltp::EstablishOptions::FromTransports(std::move(*t0),
                                               std::move(*t1)));
    LW_CHECK(session.ok());
    return std::move(*session);
  }
};

Deployment& SharedDeployment() {
  // Leaky singleton: the deployment owns a running reactor loop, and
  // tearing it down during static destruction races that loop at exit.
  // lwlint: allow(naked-new)
  static Deployment* d = new Deployment(2000);
  return *d;
}

void BM_PageLoadSequential(benchmark::State& state) {
  zltp::PirSession session = SharedDeployment().Connect();
  const auto& titles = SharedDeployment().titles;
  std::size_t i = 0;
  for (auto _ : state) {
    for (int f = 0; f < kFetchesPerPage; ++f) {
      benchmark::DoNotOptimize(
          session.PrivateGet(titles[(i + f) % titles.size()]));
    }
    i += kFetchesPerPage;
  }
  session.Close();
}
BENCHMARK(BM_PageLoadSequential)->Unit(benchmark::kMillisecond);

void BM_PageLoadPipelined(benchmark::State& state) {
  zltp::PirSession session = SharedDeployment().Connect();
  const auto& titles = SharedDeployment().titles;
  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<std::string> page_titles;
    for (int f = 0; f < kFetchesPerPage; ++f) {
      page_titles.push_back(titles[(i + f) % titles.size()]);
    }
    benchmark::DoNotOptimize(session.PrivateGetBatch(page_titles));
    i += kFetchesPerPage;
  }
  session.Close();
}
BENCHMARK(BM_PageLoadPipelined)->Unit(benchmark::kMillisecond);

void PrintReproductionTable() {
  std::printf("\n=== E10 (repo ablation): sequential vs pipelined page "
              "loads ===\n");
  Deployment& deployment = SharedDeployment();
  zltp::PirSession session = deployment.Connect();
  const auto& titles = deployment.titles;

  constexpr int kPages = 20;
  Stopwatch seq_timer;
  for (int p = 0; p < kPages; ++p) {
    for (int f = 0; f < kFetchesPerPage; ++f) {
      (void)session.PrivateGet(titles[(p * kFetchesPerPage + f) % titles.size()]);
    }
  }
  const double seq_ms = seq_timer.ElapsedMillis() / kPages;

  Stopwatch pipe_timer;
  for (int p = 0; p < kPages; ++p) {
    std::vector<std::string> page_titles;
    for (int f = 0; f < kFetchesPerPage; ++f) {
      page_titles.push_back(titles[(p * kFetchesPerPage + f) % titles.size()]);
    }
    (void)session.PrivateGetBatch(page_titles);
  }
  const double pipe_ms = pipe_timer.ElapsedMillis() / kPages;
  session.Close();

  PrintRule();
  std::printf("%-42s %14s\n", "strategy (5 GETs/page, 2^18 domain)",
              "ms/page-load");
  PrintRule();
  std::printf("%-42s %14.1f\n", "sequential PrivateGet x5", seq_ms);
  std::printf("%-42s %14.1f\n", "pipelined PrivateGetBatch", pipe_ms);
  PrintRule();
  std::printf("speedup: %.2fx — the browser's FetchPage path uses the "
              "pipelined strategy.\n"
              "(On a real network the gap widens by 4 round-trip times "
              "per page.)\n\n",
              seq_ms / pipe_ms);
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  return 0;
}
