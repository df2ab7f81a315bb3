#include "zltp/serving.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

namespace lw::zltp {
namespace {

// Queues an ErrorMsg frame for `id`. Callable from any thread; a failed
// send is ignored because the connection is on its way out or its queue
// will notice.
void SendErrorFrameTo(net::Reactor& reactor, net::Reactor::ConnId id,
                      StatusCode code, const std::string& msg) {
  ErrorMsg e;
  e.code = code;
  e.message = msg;
  (void)reactor.Send(id, Encode(e));
}

// Checks a ClientHello's version and that it offers `required`; on failure
// queues the error frame and a graceful close (error, then hang up).
bool CheckHelloFrame(net::Reactor& reactor, net::Reactor::ConnId id,
                     const net::Frame& frame, Mode required) {
  auto hello = DecodeClientHello(frame);
  if (!hello.ok()) {
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                     hello.status().message());
  } else if (hello->version != kProtocolVersion) {
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                     "unsupported protocol version");
  } else {
    for (Mode m : hello->supported_modes) {
      if (m == required) return true;
    }
    SendErrorFrameTo(reactor, id, StatusCode::kFailedPrecondition,
                     std::string("server only supports mode ") +
                         ModeName(required));
  }
  reactor.CloseAfterFlush(id);
  return false;
}

void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Inc();
}

}  // namespace

Status ServeGets(net::Reactor& reactor, net::TcpListener listener,
                 GetEndpoint endpoint) {
  auto ep = std::make_shared<const GetEndpoint>(std::move(endpoint));
  // Connections whose hello is still due. Every handler runs on the loop
  // thread, so this needs no lock.
  auto awaiting_hello =
      std::make_shared<std::unordered_set<net::Reactor::ConnId>>();
  net::Reactor::Handler handler;
  handler.on_open = [ep, awaiting_hello](net::Reactor::ConnId id) {
    Bump(ep->connections);
    if (ep->active_connections != nullptr) ep->active_connections->Add(1);
    if (ep->hello.has_value()) awaiting_hello->insert(id);
  };
  handler.on_close = [ep, awaiting_hello](net::Reactor::ConnId id,
                                          const Status&) {
    if (ep->active_connections != nullptr) ep->active_connections->Add(-1);
    awaiting_hello->erase(id);
  };
  handler.on_frame = [ep, awaiting_hello, &reactor](net::Reactor::ConnId id,
                                                    net::Frame frame) {
    if (awaiting_hello->erase(id) > 0) {
      if (CheckHelloFrame(reactor, id, frame, ep->hello->mode)) {
        (void)reactor.Send(id, Encode(*ep->hello));
      }
      return;
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
      reactor.CloseAfterFlush(id);
      return;
    }
    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(frame);
    Result<AnswerFn> answer = request.ok()
                                  ? ep->parse(std::move(request->body))
                                  : Result<AnswerFn>(request.status());
    if (!answer.ok()) {
      Bump(ep->errors);
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       answer.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    // No thread waits on the answer: whoever completes it (the batch
    // worker, a dispatcher worker, the fan-out's loop callback or expiry
    // sweeper, or this thread for an immediate refusal) queues the reply
    // with the thread-safe reactor.Send; reply_ns covers that enqueue.
    (*answer)([ep, &reactor, id, request_id = request->request_id,
               start_unix_ms, req_start,
               decode_ns](Result<Bytes> share,
                          const obs::StageTimings& timings) {
      if (!share.ok()) {
        Bump(ep->errors);
        SendErrorFrameTo(reactor, id, share.status().code(),
                         share.status().message());
        return;
      }
      obs::RequestTrace trace;
      trace.start_unix_ms = start_unix_ms;
      trace.stages.decode_ns = decode_ns;
      trace.stages.expand_ns = timings.expand_ns;
      trace.stages.scan_ns = timings.scan_ns;
      GetResponse response;
      response.request_id = request_id;
      response.body = std::move(*share);
      const auto reply_start = obs::TraceNow();
      (void)reactor.Send(id, Encode(response));
      trace.stages.reply_ns = obs::ElapsedNs(reply_start);
      trace.total_ns = obs::ElapsedNs(req_start);
      Bump(ep->requests);
      if (ep->request_ns != nullptr) ep->request_ns->Observe(trace.total_ns);
      if (ep->trace) obs::TraceRing::Default().Record(trace);
    });
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

Result<dpf::DpfKey> ParseDpfKey(ByteSpan body) {
  auto key = dpf::DpfKey::Deserialize(body);
  if (!key.ok()) {
    return ProtocolError("malformed DPF key: " + key.status().message());
  }
  return key;
}

}  // namespace lw::zltp
