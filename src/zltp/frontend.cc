#include "zltp/frontend.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "zltp/serving.h"

namespace lw::zltp {

// ---------------------------------------------------------- data shard

ShardDataServer::ShardDataServer(const ShardTopology& topology,
                                 std::size_t shard_index)
    : topology_(topology),
      shard_index_(shard_index),
      db_(topology.shard_domain_bits(), topology.record_size) {
  LW_CHECK_MSG(shard_index < topology.shard_count(), "shard index range");
}

std::size_t ShardDataServer::record_count() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_.record_count();
}

Status ShardDataServer::Load(std::uint64_t global_index, ByteSpan record) {
  const std::uint64_t mask = topology_.shard_count() - 1;
  if ((global_index & mask) != shard_index_) {
    return InvalidArgumentError("index belongs to a different shard");
  }
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_.Upsert(global_index >> topology_.top_bits, record);
}

Result<Bytes> ShardDataServer::Answer(const dpf::SubtreeKey& key) const {
  if (key.domain_bits != topology_.shard_domain_bits()) {
    return ProtocolError("sub-tree key has wrong depth for this shard");
  }
  const auto expand_start = obs::TraceNow();
  const dpf::BitVector bits = dpf::EvalSubtree(key);
  const std::uint64_t expand_ns = obs::ElapsedNs(expand_start);
  obs::M().dpf_expand_ns.Observe(expand_ns);
  obs::AddExpandNs(expand_ns);
  Bytes out(topology_.record_size);
  std::lock_guard<std::mutex> lock(db_mu_);
  db_.Answer(bits, out);
  return out;
}

Status ShardDataServer::ServeOnReactor(net::Reactor& reactor,
                                       net::TcpListener listener) {
  GetEndpoint endpoint;  // no hello: the shard link is CDN-internal
  endpoint.requests = &obs::M().shard_requests;
  endpoint.parse = [this](Bytes body) -> Result<AnswerFn> {
    auto key = dpf::SubtreeKey::Deserialize(body);
    if (!key.ok()) {
      return ProtocolError("malformed sub-tree key: " +
                           key.status().message());
    }
    // The sub-tree expansion + XOR scan is the shard's heavy compute.
    return AnswerFn([this, k = std::move(*key)](AnswerDone done) mutable {
      dispatch_.Post([this, k = std::move(k), done = std::move(done)] {
        done(Answer(k), obs::StageTimings{});
      });
    });
  };
  return ServeGets(reactor, std::move(listener), std::move(endpoint));
}

// ------------------------------------------------------------- fan-out
//
// The multiplexed fan-out engine. One Mux owns the pending-op correlation
// table and a Link per shard; ops are keyed by a unique request id that is
// sent to every shard, so a reply is matched to its op no matter when or
// in what order it arrives. Failure containment:
//
//   reply for unknown id      stale (its op already completed) — dropped,
//                             never attributed to another op.
//   wrong record size         the reply correlated, so only that op fails;
//                             the link's framing is intact and stays up.
//   connection loss / shard   the stream is gone or desynced (error frames
//   error frame / failed      carry no request id): the link is marked
//   send                      down, then every op awaiting it fails;
//                             replies other shards owe those ops are
//                             stale-dropped by id, and the next op
//                             redials.
//   per-op deadline           the expiry sweeper fails the op with
//                             DEADLINE_EXCEEDED; a reply that limps in
//                             later is a stale drop.

class ShardFanout::Mux {
 public:
  // One outstanding private GET: the XOR accumulator, which links still
  // owe a reply, and the completion callback.
  struct Op {
    Bytes acc;
    std::vector<bool> awaiting;
    std::size_t remaining = 0;
    AnswerCallback done;
    bool has_deadline = false;
    std::chrono::nanoseconds deadline{};
    std::chrono::nanoseconds start{};
  };

  // One shard link: the outbound connection lives on the reactor loop
  // (net::Reactor::Connect), sends are queue pushes, and replies arrive as
  // on_frame callbacks — no per-link threads at all. Enqueue never blocks
  // the caller; failures are routed back through FailOp/OnLinkDown. A
  // link-level failure closes the connection; the next op re-dials on
  // demand (no reconnect storm against a down shard: at most one dial per
  // op).
  class Link {
   public:
    Link(Mux* mux, std::size_t index, net::Reactor& reactor, std::string host,
         std::uint16_t port)
        : mux_(mux),
          index_(index),
          reactor_(reactor),
          host_(std::move(host)),
          port_(port) {}

    ~Link() { Shutdown(); }

    Status Dial() {
      net::Reactor::Handler handler;
      handler.on_frame = [this](net::Reactor::ConnId id, net::Frame frame) {
        const Status s = mux_->OnReply(index_, std::move(frame));
        if (!s.ok()) {
          // Desynced stream (uncorrelatable shard error frame): fail the
          // ops awaiting us and drop the connection; the next op re-dials.
          Forget(id);
          mux_->OnLinkDown(index_, s);
          reactor_.Close(id);
        }
      };
      handler.on_close = [this](net::Reactor::ConnId id, const Status& why) {
        // Forget() false: Shutdown or the on_frame error path already
        // disowned this conn, or the dial lost so quickly that Dial() has
        // not stored the id yet (recorded so Dial does not adopt a corpse).
        if (Forget(id)) {
          mux_->OnLinkDown(
              index_, why.ok() ? UnavailableError("shard link closed") : why);
        }
        std::lock_guard<std::mutex> lock(mu_);
        early_closed_.push_back(id);
        --pending_closes_;
        closed_cv_.notify_all();
      };
      {
        // Count the close before Connect: on_close may fire (loop thread)
        // before Connect even returns here. Stale early-close records from
        // prior dials are irrelevant to the fresh id about to be minted.
        std::lock_guard<std::mutex> lock(mu_);
        ++pending_closes_;
        early_closed_.clear();
      }
      auto id = reactor_.Connect(host_, port_, std::move(handler));
      std::lock_guard<std::mutex> lock(mu_);
      if (!id.ok()) {
        --pending_closes_;  // never registered; no on_close will come
        return id.status();
      }
      if (std::find(early_closed_.begin(), early_closed_.end(), *id) !=
          early_closed_.end()) {
        // Refused before we got to store the id: the link stays down and the
        // next op re-dials.
        early_closed_.clear();
        return UnavailableError("shard connection closed during dial");
      }
      conn_ = *id;
      return Status::Ok();
    }

    void Enqueue(std::uint32_t op_id, const net::Frame& frame) {
      net::Reactor::ConnId conn = 0;
      {
        // dial_mu_ serializes redials: two concurrent ops hitting a downed
        // link get one fresh connection, not one each. Never taken by the
        // loop-thread callbacks, so it cannot deadlock against them.
        std::lock_guard<std::mutex> dial_lock(dial_mu_);
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (stopping_) {
            conn = 0;
          } else {
            conn = conn_;
          }
        }
        if (conn == 0) {
          if (stopped()) {
            mux_->FailOp(op_id, index_,
                         UnavailableError("shard link shut down"));
            return;
          }
          // Redial on demand: at most one dial per op against a down shard,
          // so a dead peer costs each request one failed connect, never a
          // reconnect storm.
          const Status dialed = Dial();
          if (!dialed.ok()) {
            mux_->FailOp(op_id, index_, dialed);
            return;
          }
          obs::M().fanout_redials.Inc();
          std::lock_guard<std::mutex> lock(mu_);
          conn = conn_;
        }
      }
      const Status sent = reactor_.Send(conn, frame);
      if (sent.ok()) return;
      // The connection is dead (closed, or shed for an over-full send
      // queue). Mark the link down BEFORE failing anything: a caller woken
      // by the failure may issue its next op at once, and that op must
      // redial rather than queue onto the dead connection. If the link was
      // already forgotten (on_close, or another op got here first), only
      // this op is left to fail.
      if (Forget(conn)) {
        mux_->OnLinkDown(index_, sent);
      } else {
        mux_->FailOp(op_id, index_, sent);
      }
    }

    void Shutdown() {
      net::Reactor::ConnId conn = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
        stopping_ = true;
        conn = conn_;
        conn_ = 0;
      }
      // Safe even after reactor.Stop(): a stale id is a no-op (reactor.h).
      if (conn != 0) reactor_.Close(conn);
      // Wait for every dialed connection's on_close to be delivered (the
      // documented teardown order guarantees it comes: either the reactor
      // was already stopped, which drained all conns, or it is running and
      // the Close above reaches the loop). After this, no loop callback can
      // touch this link or the mux again — destruction is safe.
      std::unique_lock<std::mutex> lock(mu_);
      closed_cv_.wait(lock, [this] { return pending_closes_ == 0; });
    }

   private:
    bool stopped() {
      std::lock_guard<std::mutex> lock(mu_);
      return stopping_;
    }

    // Clears conn_ if it still names `id`; false means this close was
    // already handled (Shutdown or a newer dial took over), or the id was
    // never stored (the dial lost instantly).
    bool Forget(net::Reactor::ConnId id) {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn_ != id) return false;
      conn_ = 0;
      return true;
    }

    Mux* mux_;
    const std::size_t index_;
    net::Reactor& reactor_;
    const std::string host_;
    const std::uint16_t port_;

    std::mutex dial_mu_;  // held across Dial(); taken before mu_
    std::mutex mu_;
    net::Reactor::ConnId conn_ = 0;
    // Dials whose on_close has not yet been delivered; Shutdown waits for 0.
    int pending_closes_ = 0;
    std::condition_variable closed_cv_;
    // Conn ids whose on_close beat Dial()'s store of the id (instant refuse).
    std::vector<net::Reactor::ConnId> early_closed_;
    bool stopping_ = false;
  };

  Mux(const ShardTopology& topology, FanoutOptions options)
      : topology_(topology),
        options_(std::move(options)),
        clock_(options_.clock != nullptr ? options_.clock : &Clock::Real()) {}

  ~Mux() { Shutdown(); }

  const ShardTopology& topology() const { return topology_; }

  // Called once per shard, in shard order, before Seal().
  void AddLink(std::unique_ptr<Link> link) {
    links_.push_back(std::move(link));
  }

  // Links are complete; start the expiry sweeper if ops carry deadlines.
  void Seal() {
    LW_CHECK_MSG(links_.size() == topology_.shard_count(),
                 "need one link per shard");
    if (options_.op_timeout.count() > 0) {
      expiry_ = std::thread([this] { ExpiryLoop(); });
    }
  }

  void AnswerAsync(const dpf::DpfKey& key, AnswerCallback done) {
    if (key.domain_bits != topology_.domain_bits) {
      done(ProtocolError("DPF domain does not match deployment"));
      return;
    }
    // Front-end work: expand the top of the tree once (cheap; §5.2), then
    // ship each shard its sub-tree root. Requests pipeline onto every link
    // without waiting for any reply — concurrent ops interleave freely.
    const std::vector<dpf::SubtreeKey> subkeys =
        dpf::SplitForShards(key, topology_.top_bits);
    const std::size_t n = links_.size();
    std::uint32_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_) {
        id = next_id_++;
        if (next_id_ == 0) next_id_ = 1;  // id 0 stays reserved on wrap
        Op op;
        op.acc.assign(topology_.record_size, 0);
        op.awaiting.assign(n, true);
        op.remaining = n;
        op.done = std::move(done);
        op.start = clock_->Now();
        if (options_.op_timeout.count() > 0) {
          op.has_deadline = true;
          op.deadline = op.start + options_.op_timeout;
        }
        ops_.emplace(id, std::move(op));
      }
    }
    if (id == 0) {
      done(UnavailableError("fan-out shut down"));
      return;
    }
    obs::M().fanout_inflight.Add(1);
    expiry_cv_.notify_all();  // a new deadline may now be the earliest
    for (std::size_t s = 0; s < n; ++s) {
      GetRequest request;
      request.request_id = id;
      request.body = subkeys[s].Serialize();
      links_[s]->Enqueue(id, Encode(request));
    }
  }

  // A frame arrived on link `link`. Returns non-OK when the link's stream
  // can no longer be trusted (shard error frame — uncorrelatable by
  // design, messages.h — or an undecodable reply): the link must close
  // and redial.
  Status OnReply(std::size_t link, const net::Frame& frame) {
    if (frame.type == static_cast<std::uint8_t>(MsgType::kError)) {
      auto e = DecodeError(frame);
      return e.ok() ? StatusFromError(*e) : e.status();
    }
    auto response = DecodeGetResponse(frame);
    if (!response.ok()) return response.status();
    std::optional<Op> finished;
    Status op_failure = Status::Ok();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ops_.find(response->request_id);
      if (it == ops_.end() || !it->second.awaiting[link]) {
        // Late or duplicate: the op already completed (deadline, another
        // link's failure) or this link already answered it. Correlation
        // by id means we drop it here instead of handing it to the next
        // request — the old lock-step desync bug.
        obs::M().fanout_stale_drops.Inc();
        return Status::Ok();
      }
      Op& op = it->second;
      op.awaiting[link] = false;
      if (response->body.size() != topology_.record_size) {
        // Correlated but broken: the framing is intact, so fail only this
        // op and keep the link.
        op_failure = ProtocolError("shard answer has wrong record size");
        finished = std::move(op);
        ops_.erase(it);
      } else {
        XorInto(op.acc, response->body);
        obs::M().fanout_shard_rtt_ns.Observe(
            static_cast<std::uint64_t>((clock_->Now() - op.start).count()));
        if (--op.remaining == 0) {
          finished = std::move(op);
          ops_.erase(it);
        }
      }
    }
    if (finished.has_value()) {
      obs::M().fanout_inflight.Add(-1);
      if (op_failure.ok()) {
        finished->done(std::move(finished->acc));
      } else {
        finished->done(op_failure);
      }
    }
    return Status::Ok();
  }

  // `op_id` never reached `link` (failed dial, shut-down link, or a send
  // on a connection the link had already dropped): the op cannot complete.
  // Replies other shards already owe it become stale drops.
  void FailOp(std::uint32_t op_id, std::size_t link, const Status& why) {
    std::optional<Op> op;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ops_.find(op_id);
      if (it == ops_.end()) return;
      op = std::move(it->second);
      ops_.erase(it);
    }
    obs::M().fanout_inflight.Add(-1);
    op->done(ShardStatus(link, why));
  }

  // The link's stream is gone or desynced: every op still awaiting it
  // fails now, rather than reading someone else's reply later.
  void OnLinkDown(std::size_t link, const Status& why) {
    std::vector<Op> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = ops_.begin(); it != ops_.end();) {
        if (it->second.awaiting[link]) {
          hit.push_back(std::move(it->second));
          it = ops_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (Op& op : hit) {
      obs::M().fanout_inflight.Add(-1);
      op.done(ShardStatus(link, why));
    }
  }

  // Stops the sweeper and every link, then completes whatever is left.
  // Idempotent; called by ~Mux and usable for explicit teardown.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    expiry_cv_.notify_all();
    if (expiry_.joinable()) expiry_.join();
    for (auto& link : links_) link->Shutdown();
    std::map<std::uint32_t, Op> left;
    {
      std::lock_guard<std::mutex> lock(mu_);
      left.swap(ops_);
    }
    for (auto& [id, op] : left) {
      obs::M().fanout_inflight.Add(-1);
      op.done(UnavailableError("fan-out shut down"));
    }
  }

 private:
  static Status ShardStatus(std::size_t link, const Status& why) {
    return Status(why.code(),
                  "shard " + std::to_string(link) + ": " + why.message());
  }

  // Per-op deadlines are enforced here, against the pending table, not by
  // per-receive timeouts: the links keep demultiplexing while an expired
  // op fails fast with DEADLINE_EXCEEDED. Under a
  // FakeClock the cv wait uses short real slices (the net/inmem.cc
  // discipline) so tests advance virtual time and see prompt expiry.
  void ExpiryLoop() {
    constexpr std::chrono::milliseconds kFakeClockSlice{5};
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      const std::chrono::nanoseconds now = clock_->Now();
      std::vector<Op> due;
      std::chrono::nanoseconds next = std::chrono::nanoseconds::max();
      for (auto it = ops_.begin(); it != ops_.end();) {
        if (it->second.has_deadline && it->second.deadline <= now) {
          due.push_back(std::move(it->second));
          it = ops_.erase(it);
        } else {
          if (it->second.has_deadline) {
            next = std::min(next, it->second.deadline);
          }
          ++it;
        }
      }
      if (!due.empty()) {
        lock.unlock();
        for (Op& op : due) {
          obs::M().fanout_deadline_expired.Inc();
          obs::M().fanout_inflight.Add(-1);
          op.done(DeadlineExceededError(
              "shard fan-out deadline expired (dead or slow shard)"));
        }
        lock.lock();
        continue;
      }
      if (next == std::chrono::nanoseconds::max()) {
        expiry_cv_.wait(lock);
        continue;
      }
      if (clock_ != &Clock::Real()) {
        expiry_cv_.wait_for(lock, kFakeClockSlice);
        continue;
      }
      expiry_cv_.wait_for(
          lock, std::min(next - now, std::chrono::nanoseconds(
                                         std::chrono::seconds(60))));
    }
  }

  const ShardTopology topology_;
  const FanoutOptions options_;
  Clock* clock_;  // never null

  std::mutex mu_;  // ops_, next_id_, stopping_
  std::condition_variable expiry_cv_;
  std::map<std::uint32_t, Op> ops_;
  std::uint32_t next_id_ = 1;
  bool stopping_ = false;

  std::vector<std::unique_ptr<Link>> links_;
  std::thread expiry_;
};

ShardFanout::ShardFanout(std::unique_ptr<Mux> mux) : mux_(std::move(mux)) {}

Result<ShardFanout> ShardFanout::ConnectOnReactor(
    const ShardTopology& topology, net::Reactor& reactor,
    std::vector<ShardAddr> shards, FanoutOptions options) {
  if (shards.size() != topology.shard_count()) {
    return InvalidArgumentError("need one shard address per shard");
  }
  auto mux = std::make_unique<Mux>(topology, std::move(options));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    auto link = std::make_unique<Mux::Link>(
        mux.get(), s, reactor, std::move(shards[s].host), shards[s].port);
    LW_RETURN_IF_ERROR(link->Dial());
    mux->AddLink(std::move(link));
  }
  mux->Seal();
  return ShardFanout(std::move(mux));
}

ShardFanout::ShardFanout(ShardFanout&&) noexcept = default;
ShardFanout& ShardFanout::operator=(ShardFanout&&) noexcept = default;
ShardFanout::~ShardFanout() = default;

const ShardTopology& ShardFanout::topology() const {
  return mux_->topology();
}

void ShardFanout::AnswerAsync(const dpf::DpfKey& key, AnswerCallback done) {
  mux_->AnswerAsync(key, std::move(done));
}

Result<Bytes> ShardFanout::Answer(const dpf::DpfKey& key) {
  struct Waiter {
    std::mutex m;
    std::condition_variable cv;
    std::optional<Result<Bytes>> result;
  };
  auto waiter = std::make_shared<Waiter>();
  mux_->AnswerAsync(key, [waiter](Result<Bytes> r) {
    std::lock_guard<std::mutex> lock(waiter->m);
    waiter->result = std::move(r);
    waiter->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(waiter->m);
  waiter->cv.wait(lock, [&] { return waiter->result.has_value(); });
  return std::move(*waiter->result);
}

// ------------------------------------------------------------ front-end

FrontEndServer::FrontEndServer(std::uint8_t role, Bytes keyword_seed,
                               ShardFanout fanout)
    : role_(role),
      keyword_seed_(std::move(keyword_seed)),
      fanout_(std::move(fanout)) {
  LW_CHECK_MSG(role <= 1, "front-end role must be 0 or 1");
}

Status FrontEndServer::ServeOnReactor(net::Reactor& reactor,
                                      net::TcpListener listener) {
  GetEndpoint endpoint;
  endpoint.hello.emplace();
  endpoint.hello->mode = Mode::kTwoServerPir;
  endpoint.hello->server_role = role_;
  endpoint.hello->domain_bits =
      static_cast<std::uint8_t>(fanout_.topology().domain_bits);
  endpoint.hello->record_size =
      static_cast<std::uint32_t>(fanout_.topology().record_size);
  endpoint.hello->keyword_seed = keyword_seed_;
  endpoint.requests = &obs::M().frontend_requests;
  endpoint.errors = &obs::M().frontend_request_errors;
  endpoint.trace = true;
  // The fan-out is non-blocking: the op pipelines onto the shard links and
  // the loop moves on; the fan-out's completion callback sends the reply,
  // out of order across GETs.
  endpoint.parse = [this](Bytes body) -> Result<AnswerFn> {
    LW_ASSIGN_OR_RETURN(dpf::DpfKey key, ParseDpfKey(body));
    return AnswerFn([this, key = std::move(key)](AnswerDone done) {
      fanout_.AnswerAsync(key, [done = std::move(done)](Result<Bytes> share) {
        done(std::move(share), obs::StageTimings{});
      });
    });
  };
  return ServeGets(reactor, std::move(listener), std::move(endpoint));
}

}  // namespace lw::zltp
