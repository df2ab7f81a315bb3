#include "deploy.h"

#include <chrono>

#include "net/tcp.h"
#include "trace.h"

namespace lwbench {

lw::Result<std::unique_ptr<PirServing>> PirServing::Start(
    const std::vector<const lw::zltp::PirStore*>& stores) {
  std::unique_ptr<PirServing> out(new PirServing());
  out->reactor_ = std::make_unique<lw::net::Reactor>();
  for (const lw::zltp::PirStore* store : stores) {
    for (std::uint8_t role = 0; role < 2; ++role) {
      auto listener = lw::net::TcpListener::Listen(0);
      if (!listener.ok()) return listener.status();
      out->ports_.push_back(listener->bound_port());
      out->servers_.push_back(
          std::make_unique<lw::zltp::ZltpPirServer>(*store, role));
      LW_RETURN_IF_ERROR(out->servers_.back()->ServeOnReactor(
          *out->reactor_, std::move(*listener)));
    }
  }
  LW_RETURN_IF_ERROR(out->reactor_->Start());
  return out;
}

PirServing::~PirServing() {
  if (reactor_ != nullptr) reactor_->Stop();
  servers_.clear();
}

lw::Result<std::unique_ptr<lw::zltp::PirSession>> DialPirSession(
    std::uint16_t port0, std::uint16_t port1, bool traced) {
  lw::zltp::EstablishOptions options;
  for (const std::uint16_t port : {port0, port1}) {
    LW_ASSIGN_OR_RETURN(auto transport,
                        lw::net::TcpConnect("127.0.0.1", port));
    if (traced) {
      transport = std::make_unique<TracingTransport>(std::move(transport));
    }
    (port == port0 ? options.transport0 : options.transport1) =
        std::move(transport);
  }
  // A wedged GET must fail (and count) instead of hanging the run.
  options.hello_timeout = std::chrono::seconds(10);
  options.op_timeout = std::chrono::seconds(30);
  LW_ASSIGN_OR_RETURN(lw::zltp::PirSession session,
                      lw::zltp::PirSession::Establish(std::move(options)));
  return std::make_unique<lw::zltp::PirSession>(std::move(session));
}

}  // namespace lwbench
