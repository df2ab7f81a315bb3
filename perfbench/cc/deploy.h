// Deployment building blocks shared by the workloads: reactor-served PIR
// servers on loopback TCP and the client sessions that dial them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/reactor.h"
#include "util/status.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lwbench {

// Every store served by two ZltpPirServers (roles 0 and 1) on one epoll
// reactor, each server with the default ServerOptions — the way
// tools/lightweb_serve serves its code and data universes.
class PirServing {
 public:
  static lw::Result<std::unique_ptr<PirServing>> Start(
      const std::vector<const lw::zltp::PirStore*>& stores);
  ~PirServing();  // stops the reactor, then destroys the servers

  PirServing(const PirServing&) = delete;
  PirServing& operator=(const PirServing&) = delete;

  std::uint16_t port(std::size_t store, int role) const {
    return ports_[store * 2 + static_cast<std::size_t>(role)];
  }

 private:
  PirServing() = default;

  std::unique_ptr<lw::net::Reactor> reactor_;  // outlives the servers
  std::vector<std::unique_ptr<lw::zltp::ZltpPirServer>> servers_;
  std::vector<std::uint16_t> ports_;
};

// Dials a two-server PIR session over loopback TCP. With `traced`, each
// transport is wrapped in a TracingTransport.
lw::Result<std::unique_ptr<lw::zltp::PirSession>> DialPirSession(
    std::uint16_t port0, std::uint16_t port1, bool traced);

}  // namespace lwbench
