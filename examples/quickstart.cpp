// Quickstart: the ZLTP private-GET in ~60 lines.
//
// Spins up a universe store, serves it from TWO logical ZLTP servers (the
// non-colluding pair of the two-server PIR mode) on an epoll reactor,
// connects a client over loopback TCP, and fetches a blob — without either
// server ever learning which key was requested.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "util/check.h"

#include "net/reactor.h"
#include "net/tcp.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

int main() {
  using namespace lw;

  // 1. The CDN's content store: a 2^16 DPF domain of 1 KiB fixed blobs.
  zltp::PirStoreConfig config;
  config.domain_bits = 16;
  config.record_size = 1024;
  zltp::PirStore store(config);

  // 2. Publishers upload key-value pairs (keys are arbitrary strings).
  LW_CHECK(store
               .Publish("nytimes.com/2023/06/25/uganda",
                        ToBytes("{\"headline\":\"Lake Victoria rises\"}"))
               .ok());
  LW_CHECK(
      store
          .Publish("wikipedia.org/wiki/PIR",
                   ToBytes("{\"text\":\"Private information retrieval...\"}"))
          .ok());
  LW_CHECK(store
               .Publish("poodleclubofamerica.org/shows",
                        ToBytes("{\"next_show\":\"2026-08-01\"}"))
               .ok());
  std::printf("universe holds %zu blobs (%zu bytes)\n\n",
              store.record_count(), store.stored_bytes());

  // 3. Two logical ZLTP servers, each on an ephemeral loopback port of one
  //    epoll reactor. In production these replicas live in separate trust
  //    domains; security holds if at most one is corrupted.
  net::Reactor reactor;  // declared before the servers: outlives them
  zltp::ZltpPirServer server0(store, /*role=*/0);
  zltp::ZltpPirServer server1(store, /*role=*/1);
  auto listener0 = net::TcpListener::Listen(0);
  auto listener1 = net::TcpListener::Listen(0);
  LW_CHECK(listener0.ok() && listener1.ok());
  const std::uint16_t port0 = listener0->bound_port();
  const std::uint16_t port1 = listener1->bound_port();
  LW_CHECK(server0.ServeOnReactor(reactor, std::move(*listener0)).ok());
  LW_CHECK(server1.ServeOnReactor(reactor, std::move(*listener1)).ok());
  LW_CHECK(reactor.Start().ok());

  // 4. A client session dials both servers and negotiates parameters.
  auto link0 = net::TcpConnect("127.0.0.1", port0);
  auto link1 = net::TcpConnect("127.0.0.1", port1);
  LW_CHECK(link0.ok() && link1.ok());
  auto session = zltp::PirSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(*link0),
                                             std::move(*link1)));
  if (!session.ok()) {
    std::printf("session failed: %s\n", session.status().ToString().c_str());
    reactor.Stop();
    return 1;
  }
  std::printf("session: domain 2^%d, blob size %zu B\n\n",
              session->domain_bits(), session->record_size());

  // 5. Private GETs. Each server sees only a pseudorandom DPF key share.
  for (const char* key :
       {"nytimes.com/2023/06/25/uganda", "wikipedia.org/wiki/PIR",
        "no-such-page.example/x"}) {
    auto value = session->PrivateGet(key);
    if (value.ok()) {
      std::printf("GET %-34s -> %s\n", key, ToString(*value).c_str());
    } else {
      std::printf("GET %-34s -> %s\n", key,
                  value.status().ToString().c_str());
    }
  }

  const auto& traffic = session->traffic();
  std::printf("\ntraffic: %llu requests, %llu B up, %llu B down "
              "(every request identical on the wire)\n",
              static_cast<unsigned long long>(traffic.requests),
              static_cast<unsigned long long>(traffic.bytes_sent),
              static_cast<unsigned long long>(traffic.bytes_received));
  session->Close();
  reactor.Stop();  // teardown order: Stop(), then the servers, the reactor
  return 0;
}
