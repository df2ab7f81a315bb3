// ZLTP client sessions.
//
// Session is the mode-agnostic interface the browser stack programs
// against: keyword private-GET, pipelined batch, and a dummy GET that is
// indistinguishable on the wire (used to pad every page load to a fixed
// fetch count, paper §3.2). Two implementations:
//
//  * PirSession — two connections to the two non-colluding logical servers;
//    implements the full keyword private-GET: hash the key into the DPF
//    domain, generate the two key shares, collect and XOR the answers,
//    unpack, and verify the embedded fingerprint (detecting absence and
//    hash collisions without trusting the servers).
//  * EnclaveSession — the single-server enclave-mode equivalent.
//
// Both are resilient (docs/ROBUSTNESS.md): operations carry per-attempt
// deadlines, retryable failures (UNAVAILABLE, DEADLINE_EXCEEDED) trigger
// jittered-backoff retries, and — when EstablishOptions supplies transport
// factories — dead connections are redialed and the hello re-run before
// the retry. A retried private GET always regenerates fresh DPF key
// shares; resending captured bytes would let the network correlate two
// sightings of one query, which a fresh share cannot.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/retry.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/status.h"
#include "zltp/messages.h"

namespace lw::zltp {

// Per-session communication accounting (for the §5.1/§5.2 communication
// benches and traffic-shape tests). The same quantities are mirrored into
// the process-wide obs registry (lw_client_* metrics).
struct TrafficCounters {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t requests = 0;  // completed private GETs (incl. dummies)
  std::uint64_t retries = 0;   // attempts re-issued with fresh queries
  std::uint64_t redials = 0;   // connections re-dialed + hello re-run
};

// Mode-agnostic client session: what the lightweb browser needs from ZLTP,
// regardless of whether the deployment is two-server PIR or enclave.
class Session {
 public:
  virtual ~Session() = default;

  // Fixed blob size announced by the server hello(s).
  virtual std::size_t record_size() const = 0;

  // Keyword private-GET. NOT_FOUND if the key is unpublished; COLLISION if
  // the returned record belongs to a different key.
  virtual Result<Bytes> PrivateGet(std::string_view key) = 0;

  // A whole page load — every key plus `extra_dummies` cover queries — as
  // one unit. Results are per-key, in order; dummy results are discarded.
  // A transport failure (after retries) fails the whole batch.
  virtual Result<std::vector<Result<Bytes>>> PrivateGetBatch(
      const std::vector<std::string>& keys, int extra_dummies = 0) = 0;

  // Cover-traffic fetch, byte-for-byte indistinguishable from a real query
  // on the wire; discards the result.
  virtual Status DummyGet() = 0;

  virtual const TrafficCounters& traffic() const = 0;

  // Sends Bye and closes the connection(s). Further ops fail
  // FAILED_PRECONDITION.
  virtual void Close() = 0;
};

// How to establish (and re-establish) a session. Move-only: transports are
// consumed by Establish.
//
// Transports and factories: each server slot needs at least one of the
// two. If only the factory is given, the initial dial goes through it too;
// if only the transport is given, the session cannot redial — a dead
// connection then fails the session permanently (after in-place retries).
// Every factory invocation must reach the same logical endpoint: on redial
// the hello is re-run and the announced role and universe parameters must
// match what the session first established.
struct EstablishOptions {
  std::unique_ptr<net::Transport> transport0;
  std::unique_ptr<net::Transport> transport1;  // two-server PIR only
  net::TransportFactory factory0;
  net::TransportFactory factory1;  // two-server PIR only

  // Budget for one hello exchange / one private-GET attempt (the whole
  // pipelined batch counts as one attempt). Zero = unbounded.
  std::chrono::nanoseconds hello_timeout{0};
  std::chrono::nanoseconds op_timeout{0};

  // Governs establish, per-operation retries, and backoff pacing.
  net::RetryPolicy retry = net::RetryPolicy::NoRetry();

  // Clock for deadlines (and, unless the policy names its own, backoff).
  // Null = Clock::Real().
  Clock* clock = nullptr;

  // Optional extra accounting destination, accumulated alongside the
  // session's own traffic() — lets one caller aggregate several sessions.
  TrafficCounters* traffic_sink = nullptr;

  // Convenience for the common transports-only case (no deadlines, no
  // retries, no redial). Enclave mode passes one transport.
  static EstablishOptions FromTransports(
      std::unique_ptr<net::Transport> t0,
      std::unique_ptr<net::Transport> t1 = nullptr) {
    EstablishOptions options;
    options.transport0 = std::move(t0);
    options.transport1 = std::move(t1);
    return options;
  }
};

class PirSession final : public Session {
 public:
  // Performs the hello exchange on both connections. Fails unless the two
  // servers agree on blob size / domain / keyword seed and present distinct
  // roles (a misconfigured deployment pointing both connections at the same
  // trust domain would void the non-collusion assumption).
  static Result<PirSession> Establish(EstablishOptions options);

  PirSession(PirSession&&) = default;
  PirSession& operator=(PirSession&&) = default;

  int domain_bits() const { return domain_bits_; }
  std::size_t record_size() const override { return record_size_; }
  const Bytes& keyword_seed() const { return keyword_seed_; }

  Result<Bytes> PrivateGet(std::string_view key) override;

  // Pipelined batch: all requests (for every key, plus `extra_dummies`
  // random-index cover queries) are sent to both servers before any
  // response is read. One network round trip for the whole page load, and
  // the server co-batches the scans (§5.1).
  Result<std::vector<Result<Bytes>>> PrivateGetBatch(
      const std::vector<std::string>& keys, int extra_dummies = 0) override;

  // Raw private-GET of a domain index (returns the packed record).
  Result<Bytes> PrivateGetIndex(std::uint64_t index);

  Status DummyGet() override;

  const TrafficCounters& traffic() const override { return traffic_; }

  void Close() override;

 private:
  PirSession() = default;

  net::Deadline OpDeadline() const;
  net::Deadline HelloDeadline() const;
  Result<ServerHello> HelloOn(net::Transport& transport);

  // Hellos both transports and installs them. On first establish the pair
  // is ordered by announced role; on redial (`reestablish`) each slot must
  // re-announce the role and universe parameters recorded at establish.
  Status AdoptConnections(std::unique_ptr<net::Transport> t0,
                          std::unique_ptr<net::Transport> t1,
                          net::TransportFactory dial0,
                          net::TransportFactory dial1, bool reestablish);

  bool connected() const;
  bool CanRedial() const;
  Status Redial();
  void DropConnections();

  // Runs `op` under the retry policy: per-attempt deadline, backoff between
  // attempts, redial (fresh connections + hello) before each retry. `op`
  // must generate fresh queries on every call.
  template <typename Op>
  auto WithRetries(Op&& op) -> decltype(op(net::Deadline()));

  Result<Bytes> RoundTrip(net::Transport& transport, const Bytes& body,
                          std::uint32_t request_id,
                          const net::Deadline& deadline);

  void AccountSent(std::size_t n);
  void AccountReceived(std::size_t n);
  void AccountRequests(std::uint64_t n);
  void AccountRetry();
  void AccountRedial();

  struct Link {
    std::unique_ptr<net::Transport> transport;
    net::TransportFactory dial;
  };
  Link link0_;  // role 0
  Link link1_;  // role 1
  bool closed_ = false;

  int domain_bits_ = 0;
  std::size_t record_size_ = 0;
  Bytes keyword_seed_;
  std::uint32_t next_request_id_ = 1;

  std::chrono::nanoseconds hello_timeout_{0};
  std::chrono::nanoseconds op_timeout_{0};
  net::RetryPolicy retry_ = net::RetryPolicy::NoRetry();
  Clock* clock_ = nullptr;
  TrafficCounters* sink_ = nullptr;
  TrafficCounters traffic_;
};

class EnclaveSession final : public Session {
 public:
  // Single-server: uses the transport0/factory0 slots; setting the *1
  // slots is an error.
  static Result<EnclaveSession> Establish(EstablishOptions options);

  EnclaveSession(EnclaveSession&&) = default;
  EnclaveSession& operator=(EnclaveSession&&) = default;

  // Fixed blob size announced by the enclave's ServerHello.
  std::size_t record_size() const override { return record_size_; }

  Result<Bytes> PrivateGet(std::string_view key) override;

  // Sequential (the enclave round trip is one message each way already);
  // per-key errors are reported per slot, transport failures fail the
  // whole batch.
  Result<std::vector<Result<Bytes>>> PrivateGetBatch(
      const std::vector<std::string>& keys, int extra_dummies = 0) override;

  // A fetch for a random never-published key: the enclave's access pattern
  // and response are indistinguishable from a hit.
  Status DummyGet() override;

  const TrafficCounters& traffic() const override { return traffic_; }

  void Close() override;

 private:
  EnclaveSession() = default;

  net::Deadline OpDeadline() const;
  net::Deadline HelloDeadline() const;
  Status Adopt(std::unique_ptr<net::Transport> transport, bool reestablish);
  Status Redial();

  template <typename Op>
  auto WithRetries(Op&& op) -> decltype(op(net::Deadline()));

  std::unique_ptr<net::Transport> server_;
  net::TransportFactory dial_;
  bool closed_ = false;

  std::unique_ptr<oram::EnclaveClient> enclave_client_;
  Bytes enclave_public_key_;
  std::size_t record_size_ = 0;
  std::uint32_t next_request_id_ = 1;

  std::chrono::nanoseconds hello_timeout_{0};
  std::chrono::nanoseconds op_timeout_{0};
  net::RetryPolicy retry_ = net::RetryPolicy::NoRetry();
  Clock* clock_ = nullptr;
  TrafficCounters* sink_ = nullptr;
  TrafficCounters traffic_;
};

}  // namespace lw::zltp
