// ZLTP's enclave + ORAM mode of operation (paper §2.2).
//
// A simulated hardware enclave holds the universe in a Path ORAM over
// untrusted host memory. The host relays opaque encrypted requests; its
// entire view is the ORAM access trace — one uniformly random tree path per
// request, independent of the key. Server cost is polylog instead of the
// PIR mode's linear scan, at the price of trusting the enclave hardware.
//
// Build & run:  ./build/examples/enclave_mode
#include <cstdio>

#include "net/reactor.h"
#include "net/tcp.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "zltp/client.h"
#include "zltp/server.h"

int main() {
  using namespace lw;

  oram::EnclaveConfig config;
  config.capacity = 1024;
  config.value_size = 512;

  oram::MemoryStorage host_memory(
      oram::KvEnclave::RequiredStorageBuckets(config));
  oram::TracingStorage traced(host_memory);  // what the host observes
  oram::KvEnclave enclave(config, traced);

  // Publisher provisions content (via a secure channel in production).
  LW_CHECK(enclave.Put("wiki/Uganda", ToBytes("{\"capital\":\"Kampala\"}")).ok());
  LW_CHECK(enclave.Put("wiki/Chile", ToBytes("{\"capital\":\"Santiago\"}")).ok());
  LW_CHECK(enclave.Put("wiki/Nepal", ToBytes("{\"capital\":\"Kathmandu\"}")).ok());
  std::printf("enclave holds %zu keys; ORAM stash %zu blocks\n\n",
              enclave.key_count(), enclave.stash_size());

  // Serve over ZLTP on an ephemeral loopback port.
  net::Reactor reactor;  // declared before the server: outlives it
  zltp::ZltpEnclaveServer server(enclave);
  auto listener = net::TcpListener::Listen(0);
  LW_CHECK(listener.ok());
  const std::uint16_t port = listener->bound_port();
  LW_CHECK(server.ServeOnReactor(reactor, std::move(*listener)).ok());
  LW_CHECK(reactor.Start().ok());
  auto link = net::TcpConnect("127.0.0.1", port);
  LW_CHECK(link.ok());
  auto session = zltp::EnclaveSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(*link)));
  if (!session.ok()) {
    reactor.Stop();
    return 1;
  }

  for (const char* key : {"wiki/Uganda", "wiki/Nepal", "wiki/Atlantis"}) {
    traced.ClearTrace();
    auto value = session->PrivateGet(key);
    std::size_t reads = 0, writes = 0;
    for (const auto& ev : traced.trace()) {
      (ev.kind == oram::AccessEvent::Kind::kRead ? reads : writes)++;
    }
    std::printf("GET %-14s -> %-38s | host saw %zu bucket reads + %zu "
                "writes\n",
                key,
                value.ok() ? ToString(*value).c_str()
                           : value.status().ToString().c_str(),
                reads, writes);
  }
  std::printf("\nhits, repeats, and misses produce identical trace shapes — "
              "the ORAM obliviousness guarantee.\n");
  session->Close();
  reactor.Stop();  // teardown order: Stop(), then the server, the reactor
  return 0;
}
