#include "zltp/server.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "zltp/serving.h"

namespace lw::zltp {
namespace {

// Per-listener connection state. Every reactor handler (on_open/on_frame/
// on_close) runs on the loop thread, so this needs no lock.
struct ReactorSessions {
  std::unordered_set<net::Reactor::ConnId> awaiting_hello;
};

}  // namespace

void SendErrorFrameTo(net::Reactor& reactor, net::Reactor::ConnId id,
                      StatusCode code, const std::string& msg) {
  ErrorMsg e;
  e.code = code;
  e.message = msg;
  (void)reactor.Send(id, Encode(e));
}

Status CheckHelloFrame(net::Reactor& reactor, net::Reactor::ConnId id,
                       const net::Frame& frame, Mode required) {
  auto hello = DecodeClientHello(frame);
  Status bad = Status::Ok();
  if (!hello.ok()) {
    bad = hello.status();
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError, bad.message());
  } else if (hello->version != kProtocolVersion) {
    bad = ProtocolError("client speaks version " +
                        std::to_string(hello->version));
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                     "unsupported protocol version");
  } else {
    bool supported = false;
    for (Mode m : hello->supported_modes) supported |= (m == required);
    if (!supported) {
      bad = FailedPreconditionError("client does not support required mode");
      SendErrorFrameTo(reactor, id, StatusCode::kFailedPrecondition,
                       std::string("server only supports mode ") +
                           ModeName(required));
    }
  }
  if (!bad.ok()) reactor.CloseAfterFlush(id);
  return bad;
}

// --------------------------------------------------------------- PIR

ZltpPirServer::ZltpPirServer(const PirStore& store, std::uint8_t role,
                             ServerOptions options)
    : store_(store),
      role_(role),
      pool_(options.num_threads == 1
                ? nullptr
                : std::make_unique<ThreadPool>(options.num_threads)),
      batcher_(store, options.batch_config, pool_.get()) {
  LW_CHECK_MSG(role <= 1, "PIR server role must be 0 or 1");
}

ZltpPirServer::~ZltpPirServer() { batcher_.Stop(); }

Status ZltpPirServer::ServeOnReactor(net::Reactor& reactor,
                                     net::TcpListener listener) {
  auto sessions = std::make_shared<ReactorSessions>();
  net::Reactor::Handler handler;
  handler.on_open = [sessions](net::Reactor::ConnId id) {
    obs::M().server_connections.Inc();
    obs::M().server_active_connections.Add(1);
    sessions->awaiting_hello.insert(id);
  };
  handler.on_close = [sessions](net::Reactor::ConnId id, const Status&) {
    obs::M().server_active_connections.Add(-1);
    sessions->awaiting_hello.erase(id);
  };
  handler.on_frame = [this, sessions, &reactor](net::Reactor::ConnId id,
                                                net::Frame frame) {
    if (sessions->awaiting_hello.erase(id) > 0) {
      if (!CheckHelloFrame(reactor, id, frame, Mode::kTwoServerPir).ok()) {
        return;
      }
      ServerHello hello;
      hello.mode = Mode::kTwoServerPir;
      hello.server_role = role_;
      hello.domain_bits = static_cast<std::uint8_t>(store_.domain_bits());
      hello.record_size = static_cast<std::uint32_t>(store_.record_size());
      hello.keyword_seed = store_.config().keyword_seed;
      (void)reactor.Send(id, Encode(hello));
      return;
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
      reactor.CloseAfterFlush(id);
      return;
    }
    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       request.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    auto key = dpf::DpfKey::Deserialize(request->body);
    if (!key.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       "malformed DPF key: " + key.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    // The admission queue is the scheduler: no per-request thread exists.
    // The batch worker runs this callback and queues the reply; reply_ns
    // covers the enqueue (the loop owns the socket write).
    batcher_.SubmitAsync(
        std::move(*key),
        [&reactor, id, request_id = request->request_id, start_unix_ms,
         req_start, decode_ns](Result<Bytes> answer,
                               const obs::StageTimings& timings) {
          if (!answer.ok()) {
            obs::M().server_request_errors.Inc();
            SendErrorFrameTo(reactor, id, answer.status().code(),
                             answer.status().message());
            return;
          }
          obs::RequestTrace trace;
          trace.start_unix_ms = start_unix_ms;
          trace.stages.decode_ns = decode_ns;
          trace.stages.expand_ns = timings.expand_ns;
          trace.stages.scan_ns = timings.scan_ns;
          GetResponse response;
          response.request_id = request_id;
          response.body = std::move(*answer);
          const auto reply_start = obs::TraceNow();
          (void)reactor.Send(id, Encode(response));
          trace.stages.reply_ns = obs::ElapsedNs(reply_start);
          trace.total_ns = obs::ElapsedNs(req_start);
          obs::M().server_requests.Inc();
          obs::M().server_request_ns.Observe(trace.total_ns);
          obs::TraceRing::Default().Record(trace);
        });
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

// ------------------------------------------------------------ enclave

ZltpEnclaveServer::ZltpEnclaveServer(oram::KvEnclave& enclave)
    : enclave_(enclave) {}

Status ZltpEnclaveServer::ServeOnReactor(net::Reactor& reactor,
                                         net::TcpListener listener) {
  auto sessions = std::make_shared<ReactorSessions>();
  net::Reactor::Handler handler;
  handler.on_open = [sessions](net::Reactor::ConnId id) {
    obs::M().server_connections.Inc();
    obs::M().server_active_connections.Add(1);
    sessions->awaiting_hello.insert(id);
  };
  handler.on_close = [sessions](net::Reactor::ConnId id, const Status&) {
    obs::M().server_active_connections.Add(-1);
    sessions->awaiting_hello.erase(id);
  };
  handler.on_frame = [this, sessions, &reactor](net::Reactor::ConnId id,
                                                net::Frame frame) {
    if (sessions->awaiting_hello.erase(id) > 0) {
      if (!CheckHelloFrame(reactor, id, frame, Mode::kEnclave).ok()) return;
      ServerHello hello;
      hello.mode = Mode::kEnclave;
      hello.record_size = static_cast<std::uint32_t>(enclave_.value_size());
      hello.enclave_public_key = enclave_.public_key();
      (void)reactor.Send(id, Encode(hello));
      return;
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
      reactor.CloseAfterFlush(id);
      return;
    }
    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       request.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    // The enclave's ORAM access is blocking compute; hop off the loop.
    dispatch_.Post([this, &reactor, id, req = std::move(*request),
                     req_start, start_unix_ms, decode_ns] {
      Result<Bytes> sealed = UnavailableError("unset");
      {
        std::lock_guard<std::mutex> lock(enclave_mu_);
        sealed = enclave_.HandleEncryptedRequest(req.body);
      }
      if (!sealed.ok()) {
        obs::M().server_request_errors.Inc();
        SendErrorFrameTo(reactor, id, sealed.status().code(),
                         sealed.status().message());
        return;
      }
      obs::RequestTrace trace;
      trace.start_unix_ms = start_unix_ms;
      trace.stages.decode_ns = decode_ns;
      GetResponse response;
      response.request_id = req.request_id;
      response.body = std::move(*sealed);
      const auto reply_start = obs::TraceNow();
      (void)reactor.Send(id, Encode(response));
      trace.stages.reply_ns = obs::ElapsedNs(reply_start);
      trace.total_ns = obs::ElapsedNs(req_start);
      obs::M().server_requests.Inc();
      obs::M().server_request_ns.Observe(trace.total_ns);
      obs::TraceRing::Default().Record(trace);
    });
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

}  // namespace lw::zltp
