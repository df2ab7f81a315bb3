// Networked sharded deployment (paper §5.2).
//
// "To scale up from 1 GiB with a single c5.large data server, we consider a
// deployment of 305 c5.large data servers, each managing 1 GiB of the
// dataset. Such a deployment would also need several front-end servers to
// intercept incoming client requests, route them to the data servers, and
// combine the results. ... the front-end server can build the top part of
// the tree and then, for each sub-tree, send the sub-tree root to the
// corresponding server."
//
// ShardDataServer holds one residue class of the universe (shard s owns
// indices ≡ s mod 2^top_bits, matching dpf::SplitForShards) and answers
// sub-tree queries over an internal framed connection. FrontEndServer speaks
// standard ZLTP to clients; per GET it expands the top of the client's DPF
// key once, fans the sub-tree roots out to every shard, and XOR-combines
// the shard answers into the client's record share.
//
// The front-end/shard link is CDN-internal (one trust domain per logical
// server), so it uses bare GetRequest/GetResponse frames without a hello.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dpf/dpf.h"
#include "net/reactor.h"
#include "pir/blob_db.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/task_queue.h"
#include "zltp/messages.h"

namespace lw::zltp {

struct ShardTopology {
  int domain_bits = 22;       // full universe domain
  int top_bits = 2;           // 2^top_bits shards
  std::size_t record_size = 4096;

  int shard_domain_bits() const { return domain_bits - top_bits; }
  std::size_t shard_count() const { return std::size_t{1} << top_bits; }
};

class ShardDataServer {
 public:
  // The shard's XOR scan is serial: deployments pack one shard per small
  // instance (paper §5.2).
  ShardDataServer(const ShardTopology& topology, std::size_t shard_index);

  ShardDataServer(const ShardDataServer&) = delete;
  ShardDataServer& operator=(const ShardDataServer&) = delete;

  std::size_t shard_index() const { return shard_index_; }
  std::size_t record_count() const;

  // Loads a record at a universe-global index. INVALID_ARGUMENT if the
  // index does not belong to this shard's residue class.
  Status Load(std::uint64_t global_index, ByteSpan record);

  // Local answer to one sub-tree query (for in-process use and tests).
  Result<Bytes> Answer(const dpf::SubtreeKey& key) const;

  // Event-driven serving: sub-tree queries decode on the loop and compute
  // on a dispatcher worker (teardown order: see ZltpPirServer, server.h).
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener);

 private:
  ShardTopology topology_;
  std::size_t shard_index_;
  mutable std::mutex db_mu_;
  pir::BlobDatabase db_;
  TaskQueue dispatch_{1};  // last member: joins first
};

// Tuning for the multiplexed fan-out (ShardFanout).
struct FanoutOptions {
  // Per-op budget: a private GET that has not combined every shard reply
  // within this window fails DEADLINE_EXCEEDED — a dead shard must never
  // wedge the front-end (the deadline-everywhere discipline,
  // docs/ROBUSTNESS.md). zero = unbounded (tests only).
  std::chrono::milliseconds op_timeout{5000};
  // Time source for op deadlines. null = Clock::Real().
  Clock* clock = nullptr;
};

// The front-end's private-GET engine: splits a client key and queries every
// shard. Exposed separately from the ZLTP session loop so FrontEndServer
// serving and benches can share it.
//
// The fan-out is a client-side multiplexer: every op gets a unique request
// id, its sub-queries are pipelined onto all shard links at once, and a
// pending-op correlation table matches replies as they arrive — out of
// order across ops, concurrently across links. A late or stale reply is
// matched by id or dropped, never misattributed to the next request, which
// structurally removes the desync bug class the old lock-step fan-out had
// (an early error return leaving unread replies in other shards' pipes).
class ShardFanout {
 public:
  // Invoked exactly once per AnswerAsync, on the reactor loop thread, the
  // expiry sweeper, or (for immediate failures) the calling thread. Must
  // not block.
  using AnswerCallback = std::function<void(Result<Bytes>)>;

  // Dials every shard address through `reactor` (non-blocking connects;
  // net::Reactor::Connect), so one loop thread carries all outbound shard
  // traffic and no per-link threads exist. After a link-level failure —
  // connection loss, or a shard error frame, which carries no request id
  // and so poisons the stream's only correlation — the link closes and the
  // next op redials the same address instead of resynchronizing a stream
  // it no longer trusts. Teardown order matches the serving contract
  // (server.h): stop the reactor first, then destroy the fan-out, then the
  // reactor object.
  struct ShardAddr {
    std::string host;
    std::uint16_t port = 0;
  };
  static Result<ShardFanout> ConnectOnReactor(const ShardTopology& topology,
                                              net::Reactor& reactor,
                                              std::vector<ShardAddr> shards,
                                              FanoutOptions options = {});

  // Defined in frontend.cc, where Mux is a complete type.
  ShardFanout(ShardFanout&&) noexcept;
  ShardFanout& operator=(ShardFanout&&) noexcept;
  ~ShardFanout();  // completes every pending op with UNAVAILABLE

  const ShardTopology& topology() const;

  // Non-blocking: splits the key, pipelines one sub-query per shard link,
  // and registers the op in the correlation table; `done` fires when the
  // last shard reply has been XOR-combined or the op fails (per-op
  // deadline, link failure). Many ops may be in flight at once.
  void AnswerAsync(const dpf::DpfKey& key, AnswerCallback done);

  // Blocking wrapper around AnswerAsync for direct callers. Concurrent
  // callers pipeline — there is no fan-out-wide mutex around the shard
  // round trips.
  Result<Bytes> Answer(const dpf::DpfKey& key);

 private:
  class Mux;  // the correlation table + links, defined in frontend.cc

  explicit ShardFanout(std::unique_ptr<Mux> mux);
  std::unique_ptr<Mux> mux_;
};

// A complete logical ZLTP server built from a fan-out: speaks the standard
// client protocol (hello + GETs), so PirSession works unchanged against a
// sharded deployment.
class FrontEndServer {
 public:
  FrontEndServer(std::uint8_t role, Bytes keyword_seed, ShardFanout fanout);

  FrontEndServer(const FrontEndServer&) = delete;
  FrontEndServer& operator=(const FrontEndServer&) = delete;

  // Event-driven serving: GETs decode on the loop and go straight into
  // ShardFanout::AnswerAsync — the fan-out is non-blocking, so no
  // dispatcher worker sits between decode and the shard links; replies
  // complete out of order via the fan-out's correlation table and are sent
  // from its completion callbacks. Teardown order: reactor.Stop() first,
  // then destroy this server (the fan-out fails pending ops with
  // UNAVAILABLE), then the reactor object (see ZltpPirServer, server.h).
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener);

 private:
  std::uint8_t role_;
  Bytes keyword_seed_;
  ShardFanout fanout_;
};

}  // namespace lw::zltp
