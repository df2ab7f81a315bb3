// The server side of the ZLTP protocol, shared by every endpoint in
// server.cc and frontend.cc. Internal to lw_zltp: not part of the serving
// API.
//
// ServeGets owns everything the endpoints have in common: the hello, Bye,
// GetRequest decode, PROTOCOL_ERROR plus close on a malformed frame or
// body, error frames for failed answers, the reply frame, the trace and
// the counters. An endpoint supplies only its ServerHello, a parse step
// and an asynchronous answer.
#pragma once

#include <functional>
#include <optional>

#include "dpf/dpf.h"
#include "net/reactor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "zltp/messages.h"

namespace lw::zltp {

// Completes one GET with its record share (or why it failed) and the
// expand/scan time its trace is credited. Callable once, from any thread.
using AnswerDone =
    std::function<void(Result<Bytes>, const obs::StageTimings&)>;

// Starts answering one parsed GET. Runs on the loop, so it must not block:
// it hands the work to a batcher, a worker or the shard fan-out.
using AnswerFn = std::function<void(AnswerDone)>;

struct GetEndpoint {
  // The reply to a valid ClientHello, whose offered modes must include
  // hello->mode. nullopt for the CDN-internal shard link, which has no
  // hello: its first frame is already a GET.
  std::optional<ServerHello> hello;

  // Runs on the loop: turns a GetRequest body into the answer to start.
  // An error is a PROTOCOL_ERROR that closes the connection.
  std::function<Result<AnswerFn>(Bytes body)> parse;

  // The metrics this endpoint owns (docs/OBSERVABILITY.md); a null one is
  // not bumped. `requests` counts replies sent, `errors` malformed
  // requests and failed answers, `request_ns` decode through reply.
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Histogram* request_ns = nullptr;
  obs::Counter* connections = nullptr;
  obs::Gauge* active_connections = nullptr;
  bool trace = false;  // one RequestTrace per reply in TraceRing::Default()
};

// Registers `listener` on `reactor` and serves GETs on every connection it
// accepts. Teardown order: see ZltpPirServer (server.h).
Status ServeGets(net::Reactor& reactor, net::TcpListener listener,
                 GetEndpoint endpoint);

// Parses a client's DPF key share (the PIR server's and front-end's body).
Result<dpf::DpfKey> ParseDpfKey(ByteSpan body);

}  // namespace lw::zltp
