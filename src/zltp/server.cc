#include "zltp/server.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "zltp/serving.h"

namespace lw::zltp {
namespace {

// The PIR and enclave servers own the lw_server_* metrics.
GetEndpoint ServerEndpoint(ServerHello hello) {
  GetEndpoint endpoint;
  endpoint.hello = std::move(hello);
  endpoint.requests = &obs::M().server_requests;
  endpoint.errors = &obs::M().server_request_errors;
  endpoint.request_ns = &obs::M().server_request_ns;
  endpoint.connections = &obs::M().server_connections;
  endpoint.active_connections = &obs::M().server_active_connections;
  endpoint.trace = true;
  return endpoint;
}

}  // namespace

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
  ServerHello hello;
  hello.mode = Mode::kTwoServerPir;
  hello.server_role = role_;
  hello.domain_bits = static_cast<std::uint8_t>(store_.domain_bits());
  hello.record_size = static_cast<std::uint32_t>(store_.record_size());
  hello.keyword_seed = store_.config().keyword_seed;
  GetEndpoint endpoint = ServerEndpoint(std::move(hello));
  // The admission queue is the scheduler: no per-request thread exists.
  endpoint.parse = [this](Bytes body) -> Result<AnswerFn> {
    LW_ASSIGN_OR_RETURN(dpf::DpfKey key, ParseDpfKey(body));
    return AnswerFn([this, key = std::move(key)](AnswerDone done) mutable {
      batcher_.SubmitAsync(std::move(key), std::move(done));
    });
  };
  return ServeGets(reactor, std::move(listener), std::move(endpoint));
}

// ------------------------------------------------------------ enclave

ZltpEnclaveServer::ZltpEnclaveServer(oram::KvEnclave& enclave)
    : enclave_(enclave) {}

Status ZltpEnclaveServer::ServeOnReactor(net::Reactor& reactor,
                                         net::TcpListener listener) {
  ServerHello hello;
  hello.mode = Mode::kEnclave;
  hello.record_size = static_cast<std::uint32_t>(enclave_.value_size());
  hello.enclave_public_key = enclave_.public_key();
  GetEndpoint endpoint = ServerEndpoint(std::move(hello));
  // The body is sealed for the enclave: nothing to parse on the loop. The
  // enclave's ORAM access is blocking compute, so it hops to the worker.
  endpoint.parse = [this](Bytes body) -> Result<AnswerFn> {
    return AnswerFn([this, body = std::move(body)](AnswerDone done) mutable {
      dispatch_.Post([this, body = std::move(body), done = std::move(done)] {
        Result<Bytes> sealed = UnavailableError("unset");
        {
          std::lock_guard<std::mutex> lock(enclave_mu_);
          sealed = enclave_.HandleEncryptedRequest(body);
        }
        done(std::move(sealed), obs::StageTimings{});
      });
    });
  };
  return ServeGets(reactor, std::move(listener), std::move(endpoint));
}

}  // namespace lw::zltp
