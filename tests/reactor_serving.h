// Test fixture: serves ZLTP endpoints on one real epoll reactor.
//
// The reactor is the only serving loop, so tests serve the way production
// does: a net::Reactor, one ephemeral loopback listener per served
// endpoint, and clients that dial it with TcpConnect. Client-side fault
// decorators (net/faulty.h) wrap the dialed transport; server-side faults
// go through a net::FaultRelay in front of the endpoint's port.
//
// The fixture owns the servers it makes so it can enforce the serving
// teardown order (zltp/server.h): Stop() the reactor, then destroy the
// servers, then the reactor. Whatever the servers reference (a store, an
// enclave) must be declared before the fixture so it outlives them.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace lw::testutil {

class ReactorServing {
 public:
  explicit ReactorServing(net::Reactor::Options options = {})
      : reactor_(options) {
    const Status started = reactor_.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~ReactorServing() {
    reactor_.Stop();
    servers_.clear();
  }

  ReactorServing(const ReactorServing&) = delete;
  ReactorServing& operator=(const ReactorServing&) = delete;

  net::Reactor& reactor() { return reactor_; }

  // Constructs a server that the fixture owns until teardown.
  template <typename Server, typename... Args>
  Server& Make(Args&&... args) {
    auto server = std::make_shared<Server>(std::forward<Args>(args)...);
    servers_.push_back(server);
    return *server;
  }

  // Serves a server made by Make() on a fresh ephemeral port.
  template <typename Server>
  std::uint16_t Serve(Server& server) {
    auto listener = net::TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    if (!listener.ok()) return 0;
    const std::uint16_t port = listener->bound_port();
    const Status served = server.ServeOnReactor(reactor_, std::move(*listener));
    EXPECT_TRUE(served.ok()) << served.ToString();
    return port;
  }

  // Dials a fresh connection to `port` on every call (the redial shape).
  static net::TransportFactory Dialer(std::uint16_t port) {
    return [port] { return net::TcpConnect("127.0.0.1", port); };
  }

  // One connection to `port`; null (and a test failure) if the dial fails.
  static std::unique_ptr<net::Transport> Connect(std::uint16_t port) {
    auto transport = net::TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(transport.ok()) << transport.status().ToString();
    if (!transport.ok()) return nullptr;
    return std::move(*transport);
  }

 private:
  net::Reactor reactor_;
  std::vector<std::shared_ptr<void>> servers_;
};

}  // namespace lw::testutil
