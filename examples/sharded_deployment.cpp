// The §5.2 scaled deployment topology, miniaturized and fully networked:
//
//   client ──ZLTP──► front-end (role 0) ──TCP──► 4 shard data servers
//          ──ZLTP──► front-end (role 1) ──TCP──► 4 shard data servers
//
// Each front-end expands the top of the client's DPF tree once and ships
// sub-tree roots to its shards; every shard scans only its slice. The
// client code is byte-identical to the single-server case. All ten servers
// share one epoll reactor on ephemeral loopback ports.
//
// Build & run:  ./build/examples/sharded_deployment
#include <cstdio>

#include "net/reactor.h"
#include "net/tcp.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "util/timer.h"
#include "zltp/client.h"
#include "zltp/frontend.h"

namespace {

using namespace lw;

template <typename Server>
std::uint16_t ServeOnEphemeralPort(Server& server, net::Reactor& reactor) {
  auto listener = net::TcpListener::Listen(0);
  LW_CHECK(listener.ok());
  const std::uint16_t port = listener->bound_port();
  LW_CHECK(server.ServeOnReactor(reactor, std::move(*listener)).ok());
  return port;
}

struct Replica {
  zltp::ShardTopology topology;
  Bytes keyword_seed;
  pir::KeywordMapper mapper;
  std::vector<std::unique_ptr<zltp::ShardDataServer>> shards;

  explicit Replica(const zltp::ShardTopology& t, Bytes seed)
      : topology(t),
        keyword_seed(std::move(seed)),
        mapper(keyword_seed, t.domain_bits) {
    for (std::size_t s = 0; s < t.shard_count(); ++s) {
      shards.push_back(std::make_unique<zltp::ShardDataServer>(t, s));
    }
  }

  bool Publish(const std::string& key, const std::string& payload) {
    const std::uint64_t index = mapper.IndexOf(key);
    auto record = pir::PackRecord(mapper.Fingerprint(key), ToBytes(payload),
                                  topology.record_size);
    if (!record.ok()) return false;
    const std::size_t shard = index & (topology.shard_count() - 1);
    return shards[shard]->Load(index, *record).ok();
  }

  // Serves every shard on `reactor` and connects a front-end fan-out to
  // them over real TCP sockets.
  zltp::ShardFanout ServeAndConnectShards(net::Reactor& reactor) {
    std::vector<zltp::ShardFanout::ShardAddr> addrs;
    for (auto& shard : shards) {
      addrs.push_back({"127.0.0.1", ServeOnEphemeralPort(*shard, reactor)});
    }
    auto fanout = zltp::ShardFanout::ConnectOnReactor(topology, reactor, addrs);
    LW_CHECK(fanout.ok());
    return std::move(*fanout);
  }
};

}  // namespace

int main() {
  zltp::ShardTopology topology;
  topology.domain_bits = 16;
  topology.top_bits = 2;  // 4 data servers per logical server
  topology.record_size = 1024;
  const Bytes seed(16, 0x2a);

  // One loop carries every server and every front-end->shard link.
  // Declared first: teardown is Stop(), then the servers, then the reactor.
  net::Reactor reactor;
  LW_CHECK(reactor.Start().ok());

  // Two logical servers = two replicas in distinct trust domains.
  Replica replica0(topology, seed), replica1(topology, seed);
  int published = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "corpus/doc-" + std::to_string(i);
    const std::string payload =
        "{\"doc\":" + std::to_string(i) + ",\"text\":\"...\"}";
    const bool ok0 = replica0.Publish(key, payload);
    const bool ok1 = replica1.Publish(key, payload);
    published += (ok0 && ok1);
  }
  std::printf("published %d docs across %zu shards per replica\n", published,
              topology.shard_count());
  for (std::size_t s = 0; s < replica0.shards.size(); ++s) {
    std::printf("  shard %zu holds %zu records\n", s,
                replica0.shards[s]->record_count());
  }

  zltp::FrontEndServer frontend0(0, seed,
                                 replica0.ServeAndConnectShards(reactor));
  zltp::FrontEndServer frontend1(1, seed,
                                 replica1.ServeAndConnectShards(reactor));
  auto c0 = net::TcpConnect("127.0.0.1",
                            ServeOnEphemeralPort(frontend0, reactor));
  auto c1 = net::TcpConnect("127.0.0.1",
                            ServeOnEphemeralPort(frontend1, reactor));
  LW_CHECK(c0.ok() && c1.ok());
  auto session = zltp::PirSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(*c0), std::move(*c1)));
  if (!session.ok()) {
    std::printf("session: %s\n", session.status().ToString().c_str());
    reactor.Stop();
    return 1;
  }

  Stopwatch timer;
  int fetched = 0;
  for (int i = 0; i < 200; i += 37) {
    const std::string key = "corpus/doc-" + std::to_string(i);
    auto value = session->PrivateGet(key);
    if (value.ok()) {
      std::printf("GET %-18s -> %s\n", key.c_str(),
                  ToString(*value).c_str());
      ++fetched;
    }
  }
  std::printf("\n%d private GETs through 2 front-ends x %zu shards in "
              "%.1f ms\n",
              fetched, topology.shard_count(), timer.ElapsedMillis());
  session->Close();
  reactor.Stop();
  return 0;
}
