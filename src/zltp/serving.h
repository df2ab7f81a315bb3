// Reactor serving helpers shared by the endpoints in server.cc and
// frontend.cc. Internal to lw_zltp: not part of the serving API.
#pragma once

#include <string>

#include "net/reactor.h"
#include "zltp/messages.h"

namespace lw::zltp {

// Queues an ErrorMsg frame for `id`. Callable from any thread; a failed
// send is ignored because the connection is on its way out or its queue
// will notice.
void SendErrorFrameTo(net::Reactor& reactor, net::Reactor::ConnId id,
                      StatusCode code, const std::string& msg);

// Checks a ClientHello's version and that it offers `required`; on failure
// queues the error frame and a graceful close (error, then hang up) and
// returns why.
Status CheckHelloFrame(net::Reactor& reactor, net::Reactor::ConnId id,
                       const net::Frame& frame, Mode required);

}  // namespace lw::zltp
