#include "zltp/client.h"

#include <algorithm>
#include <array>
#include <utility>

#include "crypto/siphash.h"
#include "crypto/x25519.h"
#include "obs/metrics.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"

namespace lw::zltp {
namespace {

std::size_t FrameWireSize(const net::Frame& f) {
  return 4 + 1 + f.payload.size();  // length prefix + type + payload
}

// 64 secure random bits: unpredictable backoff jitter (tests with a
// FakeClock never actually wait, so its determinism does not matter
// there) and dummy query positions.
std::uint64_t SecureRandomU64() {
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  return LoadLE64(buf);
}

net::Deadline MakeDeadline(std::chrono::nanoseconds timeout, Clock* clock) {
  if (timeout <= std::chrono::nanoseconds::zero()) {
    return net::Deadline::Infinite();
  }
  return net::Deadline::After(timeout, clock);
}

const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

// Interprets a reconstructed record for a keyword query: verifies presence
// and the embedded fingerprint.
Result<Bytes> InterpretRecord(const Bytes& record,
                              std::uint64_t expected_fingerprint) {
  LW_ASSIGN_OR_RETURN(const pir::UnpackedRecord un, pir::UnpackRecord(record));
  if (un.fingerprint == 0 && un.payload.empty()) {
    return NotFoundError("key not published in this universe");
  }
  if (un.fingerprint != expected_fingerprint) {
    return CollisionError(
        "record at this index belongs to a different key (hash collision)");
  }
  return un.payload;
}

}  // namespace

// ---------------------------------------------------------- SessionCore

SessionCore::SessionCore(const EstablishOptions& options)
    : hello_timeout_(options.hello_timeout),
      op_timeout_(options.op_timeout),
      retry_(options.retry),
      clock_(options.clock),
      sink_(options.traffic_sink) {
  if (retry_.clock == nullptr) retry_.clock = options.clock;
}

template <typename Op>
auto SessionCore::WithRetries(Op&& op) -> decltype(op(net::Deadline())) {
  net::Backoff backoff(retry_, SecureRandomU64());
  const int max_attempts = std::max(retry_.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    Status failure = connected() ? Status::Ok() : Connect();
    if (failure.ok()) {
      auto result = op(MakeDeadline(op_timeout_, clock_));
      if (result.ok()) return result;
      failure = StatusOf(result);
      if (failure.code() == StatusCode::kDeadlineExceeded) {
        obs::M().client_op_timeouts.Inc();
      }
      if (!net::IsRetryable(failure)) return result;
      DropConnections();
    }
    if (!net::IsRetryable(failure)) return failure;
    if (attempt >= max_attempts || !CanRedial()) return failure;
    backoff.SleepBeforeRetry();
    Account(&TrafficCounters::retries, obs::M().client_retries);
  }
}

Status SessionCore::Send(net::Transport& transport, const net::Frame& frame,
                         const net::Deadline& deadline) {
  LW_RETURN_IF_ERROR(transport.Send(frame, deadline));
  Account(&TrafficCounters::bytes_sent, obs::M().client_bytes_sent,
          FrameWireSize(frame));
  return Status::Ok();
}

Result<net::Frame> SessionCore::Receive(net::Transport& transport,
                                        const net::Deadline& deadline) {
  LW_ASSIGN_OR_RETURN(net::Frame frame, transport.Receive(deadline));
  Account(&TrafficCounters::bytes_received, obs::M().client_bytes_received,
          FrameWireSize(frame));
  if (frame.type == static_cast<std::uint8_t>(MsgType::kError)) {
    LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(frame));
    return StatusFromError(e);
  }
  return frame;
}

Result<ServerHello> SessionCore::Hello(net::Transport& transport, Mode mode) {
  const net::Deadline deadline = MakeDeadline(hello_timeout_, clock_);
  ClientHello hello;
  hello.supported_modes = {mode};
  LW_RETURN_IF_ERROR(Send(transport, Encode(hello), deadline));
  LW_ASSIGN_OR_RETURN(const net::Frame in, Receive(transport, deadline));
  LW_ASSIGN_OR_RETURN(ServerHello server_hello, DecodeServerHello(in));
  if (server_hello.version != kProtocolVersion) {
    return ProtocolError("server speaks unsupported version");
  }
  if (server_hello.mode != mode) {
    return ProtocolError("server selected a mode we did not offer");
  }
  return server_hello;
}

void SessionCore::Account(std::uint64_t TrafficCounters::*field,
                          obs::Counter& mirror, std::uint64_t n) {
  traffic_.*field += n;
  if (sink_ != nullptr) sink_->*field += n;
  mirror.Inc(n);
}

// ----------------------------------------------------------- PirSession

Result<PirSession> PirSession::Establish(EstablishOptions options) {
  if ((options.transport0 == nullptr && !options.factory0) ||
      (options.transport1 == nullptr && !options.factory1)) {
    return InvalidArgumentError(
        "EstablishOptions needs a transport or a factory for each server");
  }
  PirSession session(options);
  session.links_[0] = Link{std::move(options.transport0), options.factory0};
  session.links_[1] = Link{std::move(options.transport1), options.factory1};
  LW_RETURN_IF_ERROR(session.WithRetries(
      [](const net::Deadline&) { return Status::Ok(); }));
  return session;
}

bool PirSession::connected() const {
  return domain_bits_ != 0 && links_[0].transport != nullptr &&
         links_[1].transport != nullptr;
}

bool PirSession::CanRedial() const {
  return static_cast<bool>(links_[0].dial) &&
         static_cast<bool>(links_[1].dial);
}

Status PirSession::Connect() {
  if (domain_bits_ != 0) {  // a redial of an established session
    if (!CanRedial()) {
      return UnavailableError("session disconnected (no redial factory)");
    }
    Account(&TrafficCounters::redials, obs::M().client_redials);
  }
  Status status = Status::Ok();
  for (Link& link : links_) {
    if (link.transport != nullptr) continue;
    auto dialed = link.dial();
    if (!dialed.ok()) {
      status = dialed.status();
      break;
    }
    link.transport = std::move(*dialed);
  }
  if (status.ok()) status = AdoptConnections();
  // Never reuse a connection from a failed attempt.
  if (!status.ok()) DropConnections();
  return status;
}

Status PirSession::AdoptConnections() {
  LW_ASSIGN_OR_RETURN(ServerHello h0,
                      Hello(*links_[0].transport, Mode::kTwoServerPir));
  LW_ASSIGN_OR_RETURN(ServerHello h1,
                      Hello(*links_[1].transport, Mode::kTwoServerPir));
  if (h0.server_role == h1.server_role) {
    return FailedPreconditionError(
        "both connections reached the same logical server; the "
        "non-collusion assumption requires distinct trust domains");
  }
  if (h0.domain_bits != h1.domain_bits || h0.record_size != h1.record_size ||
      h0.keyword_seed != h1.keyword_seed) {
    return ProtocolError("servers disagree on universe parameters");
  }
  if (h0.keyword_seed.size() != crypto::kSipHashKeySize) {
    return ProtocolError("bad keyword seed size");
  }
  if (h0.domain_bits < 1 || h0.domain_bits > dpf::kMaxDomainBits) {
    return ProtocolError("bad domain_bits");
  }

  if (domain_bits_ != 0) {
    // Redials are slot-stable: the role-0 factory must reach the role-0
    // server again (a flipped or re-announced role after a blip is a
    // misconfiguration or an attack, not a transient).
    if (h0.server_role != 0 || h1.server_role != 1) {
      return FailedPreconditionError("server roles changed across redial");
    }
    if (h0.domain_bits != domain_bits_ || h0.record_size != record_size_ ||
        h0.keyword_seed != keyword_seed_) {
      return ProtocolError("universe parameters changed across redial");
    }
    return Status::Ok();
  }
  // Order the connections by announced role so key0 goes to role 0.
  if (h0.server_role != 0) {
    std::swap(h0, h1);
    std::swap(links_[0], links_[1]);
  }
  if (h0.server_role != 0 || h1.server_role != 1) {
    return ProtocolError("servers announce unknown roles");
  }
  domain_bits_ = h0.domain_bits;
  record_size_ = h0.record_size;
  keyword_seed_ = h0.keyword_seed;
  return Status::Ok();
}

void PirSession::DropConnections() {
  // Drop BOTH connections even if only one faulted: an orphaned in-flight
  // response on the healthy side would desynchronize request ids for every
  // later query. The factories survive for redial.
  for (Link& link : links_) {
    if (link.transport != nullptr) {
      link.transport->Close();
      link.transport.reset();
    }
  }
}

Result<std::vector<Bytes>> PirSession::Fetch(
    const std::vector<std::uint64_t>& indices, int dummies) {
  if (closed_) return FailedPreconditionError("session closed");
  return WithRetries(
      [&](const net::Deadline& deadline) -> Result<std::vector<Bytes>> {
        auto records = Exchange(indices, dummies, deadline);
        // A failed exchange may leave replies in flight, and an Error frame
        // carries no request id to tell them from the next exchange's: drop
        // both connections, whatever the failure (docs/ROBUSTNESS.md).
        if (!records.ok()) DropConnections();
        return records;
      });
}

Result<std::vector<Bytes>> PirSession::Exchange(
    const std::vector<std::uint64_t>& indices, int dummies,
    const net::Deadline& deadline) {
  // Fresh DPF key shares and fresh dummy positions on every attempt: a
  // resent share would let the network link two sightings of the same
  // query (docs/ROBUSTNESS.md). Dummies query uniformly random indices,
  // indistinguishable on the wire from the real queries before them.
  const std::size_t total = indices.size() + static_cast<std::size_t>(dummies);
  const std::uint64_t domain_mask = (std::uint64_t{1} << domain_bits_) - 1;
  std::vector<pir::QueryKeys> queries;
  queries.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    queries.push_back(pir::MakeIndexQuery(
        i < indices.size() ? indices[i] : SecureRandomU64() & domain_mask,
        domain_bits_));
  }
  const std::uint32_t first_id = next_request_id_;
  next_request_id_ += static_cast<std::uint32_t>(total);

  // Every share goes out to both servers before any reply is read.
  for (std::size_t i = 0; i < total; ++i) {
    for (int role = 0; role < 2; ++role) {
      GetRequest request;
      request.request_id = first_id + static_cast<std::uint32_t>(i);
      request.body =
          (role == 0 ? queries[i].key0 : queries[i].key1).Serialize();
      LW_RETURN_IF_ERROR(
          Send(*links_[role].transport, Encode(request), deadline));
    }
  }

  // Each server's replies may arrive in any order; match them by id.
  std::array<std::vector<Bytes>, 2> answers;
  for (int role = 0; role < 2; ++role) {
    answers[role].resize(total);
    std::vector<bool> seen(total, false);
    for (std::size_t n = 0; n < total; ++n) {
      LW_ASSIGN_OR_RETURN(const net::Frame in,
                          Receive(*links_[role].transport, deadline));
      LW_ASSIGN_OR_RETURN(GetResponse response, DecodeGetResponse(in));
      const std::uint32_t slot = response.request_id - first_id;
      if (slot >= total) {
        return ProtocolError("response id matches no request in flight");
      }
      if (seen[slot]) return ProtocolError("duplicate response id");
      if (response.body.size() != record_size_) {
        return ProtocolError("server answer has wrong record size");
      }
      seen[slot] = true;
      answers[role][slot] = std::move(response.body);
    }
  }
  Account(&TrafficCounters::requests, obs::M().client_requests, total);

  std::vector<Bytes> records;
  records.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    LW_ASSIGN_OR_RETURN(Bytes record,
                        pir::CombineAnswers(answers[0][i], answers[1][i]));
    records.push_back(std::move(record));
  }
  return records;
}

Result<Bytes> PirSession::PrivateGetIndex(std::uint64_t index) {
  if (index >= (std::uint64_t{1} << domain_bits_)) {
    return InvalidArgumentError("index outside universe domain");
  }
  LW_ASSIGN_OR_RETURN(std::vector<Bytes> records, Fetch({index}, 0));
  return std::move(records[0]);
}

Result<Bytes> PirSession::PrivateGet(std::string_view key) {
  const pir::KeywordMapper mapper(keyword_seed_, domain_bits_);
  LW_ASSIGN_OR_RETURN(const Bytes record, PrivateGetIndex(mapper.IndexOf(key)));
  return InterpretRecord(record, mapper.Fingerprint(key));
}

Result<std::vector<Result<Bytes>>> PirSession::PrivateGetBatch(
    const std::vector<std::string>& keys, int extra_dummies) {
  if (closed_) return FailedPreconditionError("session closed");
  if (extra_dummies < 0) return InvalidArgumentError("negative dummy count");
  if (keys.empty() && extra_dummies == 0) return std::vector<Result<Bytes>>{};
  const pir::KeywordMapper mapper(keyword_seed_, domain_bits_);
  std::vector<std::uint64_t> indices;
  indices.reserve(keys.size());
  for (const std::string& key : keys) indices.push_back(mapper.IndexOf(key));
  LW_ASSIGN_OR_RETURN(const std::vector<Bytes> records,
                      Fetch(indices, extra_dummies));
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out.push_back(InterpretRecord(records[i], mapper.Fingerprint(keys[i])));
  }
  return out;
}

Status PirSession::DummyGet() { return Fetch({}, 1).status(); }

void PirSession::Close() {
  for (Link& link : links_) {
    if (link.transport != nullptr) {
      (void)link.transport->Send(EncodeBye(), net::Deadline::Infinite());
    }
  }
  DropConnections();
  closed_ = true;
}

// ------------------------------------------------------- EnclaveSession

Result<EnclaveSession> EnclaveSession::Establish(EstablishOptions options) {
  if (options.transport1 != nullptr || options.factory1) {
    return InvalidArgumentError("enclave mode uses a single server");
  }
  if (options.transport0 == nullptr && !options.factory0) {
    return InvalidArgumentError(
        "EstablishOptions needs a transport or a factory");
  }
  EnclaveSession session(options);
  session.server_ = std::move(options.transport0);
  LW_RETURN_IF_ERROR(session.WithRetries(
      [](const net::Deadline&) { return Status::Ok(); }));
  return session;
}

bool EnclaveSession::connected() const {
  return enclave_client_ != nullptr && server_ != nullptr;
}

bool EnclaveSession::CanRedial() const { return static_cast<bool>(dial_); }

Status EnclaveSession::Connect() {
  const bool reestablish = enclave_client_ != nullptr;
  if (reestablish) {
    if (!CanRedial()) {
      return UnavailableError("session disconnected (no redial factory)");
    }
    Account(&TrafficCounters::redials, obs::M().client_redials);
  }
  if (server_ == nullptr) {
    LW_ASSIGN_OR_RETURN(server_, dial_());
  }
  auto hello = Hello(*server_, Mode::kEnclave);
  if (hello.ok() &&
      hello->enclave_public_key.size() != crypto::kX25519KeySize) {
    hello = ProtocolError("bad enclave public key");
  } else if (hello.ok() && reestablish &&
             hello->record_size != record_size_) {
    hello = ProtocolError("universe parameters changed across redial");
  }
  if (!hello.ok()) {
    DropConnections();
    return hello.status();
  }
  // A restarted enclave may present a fresh keypair; requests are sealed
  // per-attempt against whatever key the live hello announced, so rotation
  // is safe (attestation of that key is out of scope here).
  record_size_ = hello->record_size;
  enclave_client_ =
      std::make_unique<oram::EnclaveClient>(hello->enclave_public_key);
  return Status::Ok();
}

void EnclaveSession::DropConnections() {
  if (server_ != nullptr) {
    server_->Close();
    server_.reset();
  }
}

Result<Bytes> EnclaveSession::PrivateGet(std::string_view key) {
  if (closed_) return FailedPreconditionError("session closed");
  return WithRetries([&](const net::Deadline& deadline) -> Result<Bytes> {
    GetRequest request;
    request.request_id = next_request_id_++;
    // Sealed fresh on every attempt: a new ephemeral key and nonce make the
    // retried ciphertext unlinkable to the first attempt, mirroring the
    // fresh-DPF-share rule in PIR mode.
    request.body = enclave_client_->SealGetRequest(key);
    LW_RETURN_IF_ERROR(Send(*server_, Encode(request), deadline));
    LW_ASSIGN_OR_RETURN(const net::Frame in, Receive(*server_, deadline));
    LW_ASSIGN_OR_RETURN(const GetResponse response, DecodeGetResponse(in));
    if (response.request_id != request.request_id) {
      return ProtocolError("response id does not match request");
    }
    Account(&TrafficCounters::requests, obs::M().client_requests);
    return enclave_client_->OpenResponse(response.body);
  });
}

Result<std::vector<Result<Bytes>>> EnclaveSession::PrivateGetBatch(
    const std::vector<std::string>& keys, int extra_dummies) {
  if (closed_) return FailedPreconditionError("session closed");
  if (extra_dummies < 0) return InvalidArgumentError("negative dummy count");
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    auto r = PrivateGet(key);
    if (!r.ok() && r.status().code() != StatusCode::kNotFound &&
        r.status().code() != StatusCode::kCollision &&
        r.status().code() != StatusCode::kPermissionDenied) {
      return r.status();  // transport/protocol failure fails the batch
    }
    out.push_back(std::move(r));
  }
  for (int i = 0; i < extra_dummies; ++i) {
    LW_RETURN_IF_ERROR(DummyGet());
  }
  return out;
}

Status EnclaveSession::DummyGet() {
  if (closed_) return FailedPreconditionError("session closed");
  // A fetch for a random never-published key: the enclave's access pattern
  // and response are indistinguishable from a hit.
  const Bytes r = SecureRandom(16);
  std::string key = "dummy/";
  for (std::uint8_t b : r) key += static_cast<char>('a' + (b % 26));
  auto result = PrivateGet(key);
  if (!result.ok() && result.status().code() != StatusCode::kNotFound) {
    return result.status();
  }
  return Status::Ok();
}

void EnclaveSession::Close() {
  if (server_ != nullptr) {
    (void)server_->Send(EncodeBye(), net::Deadline::Infinite());
  }
  DropConnections();
  closed_ = true;
}

}  // namespace lw::zltp
