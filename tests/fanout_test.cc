// Fault-injection tests for the multiplexed shard fan-out.
//
// The fan-out is the front-end's client path: many private GETs pipeline
// across every shard link at once, correlated by request id. These tests
// serve real shard data servers on the reactor and put the faults on the
// shard's side of the wire with a net::FaultRelay carrying the
// net/faulty.h decorators, so the code under test is the production
// serving and link code: a dead shard must fail fast with
// DEADLINE_EXCEEDED (never wedge the front-end), a one-shot shard error
// must not poison subsequent requests, a send failure on one shard must
// fail only the ops that needed it while the replies other shards still
// owe are dropped by id — never misattributed — and concurrent ops against
// slow shards must overlap instead of serializing (the bug the old
// lock-step fan-out had). The whole suite runs under the sanitizer legs
// like every other test binary, including TSan (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/faulty.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pir/blob_db.h"
#include "pir/two_server.h"
#include "reactor_serving.h"
#include "util/clock.h"
#include "zltp/frontend.h"
#include "zltp/messages.h"

namespace lw::zltp {
namespace {

using std::chrono::milliseconds;
using testutil::ReactorServing;

// Sanitizer instrumentation inflates wall-clock overhead by a large
// constant factor; scale the overlap test's injected delays with it so the
// fixed per-operation overhead stays small next to the timing bounds.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kTimeScale = 4;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kTimeScale = 4;
#else
constexpr int kTimeScale = 1;
#endif
#else
constexpr int kTimeScale = 1;
#endif

ShardTopology TwoShardTopology() {
  ShardTopology t;
  t.domain_bits = 10;
  t.top_bits = 1;  // 2 shards
  t.record_size = 64;
  return t;
}

// Spins (real time) until `pred` holds; fan-out completions arrive from
// the reactor loop, so cross-thread observation needs a bounded wait.
bool WaitUntil(const std::function<bool()>& pred,
               milliseconds budget = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Holds every Wait() caller until Open(); Open is idempotent, so a test
// can open a gate on every exit path.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Opens a gate at scope exit, so a failed assertion cannot leave a thread
// parked behind it.
struct OpenOnExit {
  Gate& gate;
  ~OpenOnExit() { gate.Open(); }
};

// Applies `fault` to the relay's first connection only: the redial that
// follows the fault reaches a healthy shard.
net::FaultRelay::Options FaultFirstConnection(
    std::function<std::unique_ptr<net::Transport>(
        std::unique_ptr<net::Transport>)> fault) {
  net::FaultRelay::Options options;
  options.decorate = [fault](std::unique_ptr<net::Transport> far,
                             int conn_index) {
    return conn_index == 0 ? fault(std::move(far)) : std::move(far);
  };
  return options;
}

// Two shard data servers served on a reactor, with some content plus a
// reference unsharded DB, so every test can check fan-out answers for
// correctness, not just codes.
struct TwoShards {
  ShardTopology topology = TwoShardTopology();
  std::vector<std::uint16_t> ports;
  pir::BlobDatabase reference;

  explicit TwoShards(ReactorServing& serving)
      : reference(topology.domain_bits, topology.record_size) {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      ShardDataServer& shard = serving.Make<ShardDataServer>(topology, s);
      for (std::uint64_t i = s; i < 32; i += topology.shard_count()) {
        const Bytes record(topology.record_size,
                           static_cast<std::uint8_t>(0x30 + i));
        EXPECT_TRUE(shard.Load(i, record).ok());
        EXPECT_TRUE(reference.Upsert(i, record).ok());
      }
      ports.push_back(serving.Serve(shard));
    }
  }

  ShardFanout::ShardAddr Addr(std::size_t s) const {
    return {"127.0.0.1", ports[s]};
  }

  Bytes DirectAnswer(const dpf::DpfKey& key) {
    Bytes out(topology.record_size);
    reference.Answer(dpf::EvalFull(key), out);
    return out;
  }
};

// A relay in front of shard `s`; null (and a test failure) if it cannot
// listen.
std::unique_ptr<net::FaultRelay> RelayTo(const TwoShards& deployment,
                                         std::size_t s,
                                         net::FaultRelay::Options options) {
  auto relay = net::FaultRelay::Start("127.0.0.1", deployment.ports[s],
                                      std::move(options));
  EXPECT_TRUE(relay.ok()) << relay.status().ToString();
  return relay.ok() ? std::move(*relay) : nullptr;
}

ShardFanout::ShardAddr AddrOf(const net::FaultRelay& relay) {
  return {"127.0.0.1", relay.port()};
}

TEST(Fanout, DeadShardFailsFastWithDeadlineExceeded) {
  ReactorServing serving;
  TwoShards deployment(serving);
  FakeClock clock;
  FanoutOptions options;
  options.op_timeout = milliseconds(100);
  options.clock = &clock;

  // Shard 0 answers; shard 1 is a hung process — its listener is held but
  // never accepted, so the kernel completes the dial and takes the
  // sub-query, and then nothing ever answers.
  auto hung = net::TcpListener::Listen(0);
  ASSERT_TRUE(hung.ok());
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {deployment.Addr(0), {"127.0.0.1", hung->bound_port()}},
      std::move(options));
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();
  const pir::QueryKeys q =
      pir::MakeIndexQuery(3, deployment.topology.domain_bits);

  std::promise<Result<Bytes>> done;
  auto result = done.get_future();
  fanout->AnswerAsync(
      q.key0, [&done](Result<Bytes> r) { done.set_value(std::move(r)); });

  // Virtual time passes the op deadline; the expiry sweeper (short real
  // slices under a FakeClock) must fail the op without any shard 1 reply.
  clock.Advance(milliseconds(200));
  ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "dead shard wedged the fan-out";
  const Result<Bytes> answer = result.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
}

TEST(Fanout, ConcurrentAnswersOverlapAcrossSlowShards) {
  ReactorServing serving;
  TwoShards deployment(serving);
  // Both shards are slow: every reply costs one delay of real time. Two
  // concurrent GETs on the old lock-step path would serialize — four
  // delayed receives, >= 4 delays. The multiplexed path pipelines both ops
  // onto both links at once, so each shard's replies pay 2 delays and the
  // pair completes in ~2 delays.
  const milliseconds delay{50 * kTimeScale};
  net::FaultRelay::Options slow;
  slow.decorate = [delay](std::unique_ptr<net::Transport> far, int) {
    return std::unique_ptr<net::Transport>(
        std::make_unique<net::DelayTransport>(std::move(far), delay));
  };
  auto relay0 = RelayTo(deployment, 0, slow);
  auto relay1 = RelayTo(deployment, 1, slow);
  ASSERT_TRUE(relay0 != nullptr && relay1 != nullptr);
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {AddrOf(*relay0), AddrOf(*relay1)});
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  const pir::QueryKeys q0 =
      pir::MakeIndexQuery(5, deployment.topology.domain_bits);
  const pir::QueryKeys q1 =
      pir::MakeIndexQuery(9, deployment.topology.domain_bits);

  Result<Bytes> a0 = UnavailableError("unset");
  Result<Bytes> a1 = UnavailableError("unset");
  const auto start = std::chrono::steady_clock::now();
  std::thread t0([&] { a0 = fanout->Answer(q0.key0); });
  std::thread t1([&] { a1 = fanout->Answer(q1.key0); });
  t0.join();
  t1.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(a0.ok()) << a0.status().ToString();
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(*a0, deployment.DirectAnswer(q0.key0));
  EXPECT_EQ(*a1, deployment.DirectAnswer(q1.key0));
  // Well under the 4-delay serial bound (and comfortably over one delay,
  // so the delays really ran). The margin absorbs CI scheduling noise.
  EXPECT_LT(elapsed, delay * 7 / 2) << "fan-out serialized";
  EXPECT_GE(elapsed, delay * 2 - milliseconds(5));
}

// Replaces the first frame the shard sends with an ErrorMsg.
class ErrorOnFirstReply final : public net::Transport {
 public:
  explicit ErrorOnFirstReply(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  using net::Transport::Receive;
  using net::Transport::Send;

  Status Send(const net::Frame& frame,
              const net::Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<net::Frame> Receive(const net::Deadline& deadline) override {
    auto frame = inner_->Receive(deadline);
    if (!frame.ok() || replied_) return frame;
    replied_ = true;
    ErrorMsg e;
    e.code = StatusCode::kInternal;
    e.message = "injected shard fault";
    return Encode(e);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  bool replied_ = false;  // the relay's one far-to-near pump thread only
};

TEST(Fanout, OneShotShardErrorDoesNotPoisonSubsequentRequests) {
  ReactorServing serving;
  TwoShards deployment(serving);
  // Shard 1 answers the first sub-query with an ErrorMsg. Error frames
  // carry no request id (messages.h), so the stream loses its correlation
  // and the fan-out must close the link and redial — not resynchronize a
  // stream it no longer trusts.
  auto relay = RelayTo(
      deployment, 1,
      FaultFirstConnection([](std::unique_ptr<net::Transport> far) {
        return std::unique_ptr<net::Transport>(
            std::make_unique<ErrorOnFirstReply>(std::move(far)));
      }));
  ASSERT_NE(relay, nullptr);
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {deployment.Addr(0), AddrOf(*relay)});
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  const pir::QueryKeys q =
      pir::MakeIndexQuery(7, deployment.topology.domain_bits);
  const Result<Bytes> poisoned = fanout->Answer(q.key0);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
      << poisoned.status().ToString();

  // The next request rides the redialed link and must be correct — the
  // regression the old fan-out failed: a one-shot error left the link
  // desynced and every later request read the wrong reply.
  const Result<Bytes> after = fanout->Answer(q.key1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
}

TEST(Fanout, SendFailureOnOneShardFailsOpAndLateRepliesDrop) {
  ReactorServing serving;
  TwoShards deployment(serving);
  // Shard 1's connection dies on the first sub-query it carries (the
  // Dying decorator's budget is consumed by the relay's eager receive plus
  // that send): the op must fail even though shard 0 already owes it a
  // reply — and that reply must be stale-dropped, not left in the pipe to
  // poison the next request (the old fan-out returned early from shard k's
  // send failure with shards 0..k-1 still owing replies).
  auto relay = RelayTo(
      deployment, 1,
      FaultFirstConnection([](std::unique_ptr<net::Transport> far) {
        return std::unique_ptr<net::Transport>(
            std::make_unique<net::DyingTransport>(std::move(far),
                                                  /*ops_before_death=*/1));
      }));
  ASSERT_NE(relay, nullptr);
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {deployment.Addr(0), AddrOf(*relay)});
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  const pir::QueryKeys q =
      pir::MakeIndexQuery(11, deployment.topology.domain_bits);
  const Result<Bytes> hit = fanout->Answer(q.key0);
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.status().code(), StatusCode::kUnavailable)
      << hit.status().ToString();

  // After the redial, the fan-out answers correctly again. Shard 0's
  // orphaned reply to the failed op either matched it before the failure
  // or was stale-dropped by id afterwards — in neither case does it leak
  // into this request (which would corrupt the XOR below).
  const Result<Bytes> after = fanout->Answer(q.key1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
}

TEST(Fanout, SendFailureMarksLinkDownBeforeTheNextOpDials) {
  // The ordering rule on the send-failure path: a failed reactor Send must
  // mark the link down before it fails any op, because a caller woken by
  // that failure may issue its next op at once — and that op must redial,
  // not be queued onto the dead connection. Forced deterministically: the
  // fan-out's reactor loop is parked in a gated handler, so the dead
  // connection's on_close cannot run, and a send-queue cap of one
  // sub-query frame makes the second op's Send kill the connection on the
  // calling thread.
  ReactorServing serving;
  TwoShards deployment(serving);
  const pir::QueryKeys qa =
      pir::MakeIndexQuery(19, deployment.topology.domain_bits);
  const pir::QueryKeys qb =
      pir::MakeIndexQuery(21, deployment.topology.domain_bits);
  const pir::QueryKeys qc =
      pir::MakeIndexQuery(23, deployment.topology.domain_bits);
  GetRequest probe;
  probe.request_id = 1;
  probe.body =
      dpf::SplitForShards(qa.key0, deployment.topology.top_bits)[0]
          .Serialize();
  const std::size_t frame_bytes =
      4 + 1 + Encode(probe).payload.size();  // u32 length + type + payload

  Gate loop_parked;
  Gate release_loop;
  net::Reactor::Options client_options;
  client_options.max_send_queue_bytes = frame_bytes + frame_bytes / 2;
  net::Reactor client(client_options);
  auto gate_listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(gate_listener.ok());
  const std::uint16_t gate_port = gate_listener->bound_port();
  net::Reactor::Handler park;
  park.on_frame = [&](net::Reactor::ConnId, net::Frame) {
    loop_parked.Open();
    release_loop.Wait();
  };
  ASSERT_TRUE(
      client.AddListener(std::move(*gate_listener), std::move(park)).ok());
  ASSERT_TRUE(client.Start().ok());
  {
    auto fanout = ShardFanout::ConnectOnReactor(
        deployment.topology, client, {deployment.Addr(0), deployment.Addr(1)});
    ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();
    OpenOnExit open_on_exit{release_loop};
    // Warm up: both links connected, their send queues drained.
    ASSERT_TRUE(fanout->Answer(qc.key1).ok());

    auto holder = net::TcpConnect("127.0.0.1", gate_port);
    ASSERT_TRUE(holder.ok());
    ASSERT_TRUE(
        (*holder)->Send(net::Frame{1, {}}, net::Deadline::Infinite()).ok());
    loop_parked.Wait();

    // Op A's sub-queries sit in the send queues (nothing flushes while the
    // loop is parked); op B's overflow them, so Send sheds each connection
    // on this thread. Both ops fail here, synchronously.
    std::promise<Result<Bytes>> a_done;
    std::promise<Result<Bytes>> b_done;
    auto a = a_done.get_future();
    auto b = b_done.get_future();
    fanout->AnswerAsync(qa.key0, [&a_done](Result<Bytes> r) {
      a_done.set_value(std::move(r));
    });
    fanout->AnswerAsync(qb.key0, [&b_done](Result<Bytes> r) {
      b_done.set_value(std::move(r));
    });
    ASSERT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    ASSERT_EQ(b.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_FALSE(a.get().ok());
    EXPECT_FALSE(b.get().ok());

    // Op C, issued while the dead connections' on_close is still held
    // back, must dial fresh links and succeed once the loop runs again.
    std::promise<Result<Bytes>> c_done;
    auto c = c_done.get_future();
    fanout->AnswerAsync(qc.key0, [&c_done](Result<Bytes> r) {
      c_done.set_value(std::move(r));
    });
    release_loop.Open();
    ASSERT_EQ(c.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    const Result<Bytes> answer = c.get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, deployment.DirectAnswer(qc.key0));
  }
  client.Stop();
}

TEST(Fanout, FlakyShardLinkRecoversViaRedial) {
  ReactorServing serving;
  TwoShards deployment(serving);
  auto relay = RelayTo(
      deployment, 1,
      FaultFirstConnection([](std::unique_ptr<net::Transport> far) {
        return std::unique_ptr<net::Transport>(
            std::make_unique<net::FlakyTransport>(std::move(far),
                                                  /*failures=*/2));
      }));
  ASSERT_NE(relay, nullptr);
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {deployment.Addr(0), AddrOf(*relay)});
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  // The blips race the relay's pumps, so which op eats them is timing
  // dependent — but within a few attempts the link must have redialed and
  // answers must be correct again.
  const pir::QueryKeys q =
      pir::MakeIndexQuery(13, deployment.topology.domain_bits);
  Result<Bytes> answer = UnavailableError("unset");
  for (int attempt = 0; attempt < 5 && !answer.ok(); ++attempt) {
    answer = fanout->Answer(q.key0);
  }
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(*answer, deployment.DirectAnswer(q.key0));
}

// Holds the first frame the shard sends until `gate` opens, then passes
// everything through.
class HoldFirstReply final : public net::Transport {
 public:
  HoldFirstReply(std::unique_ptr<net::Transport> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}

  using net::Transport::Receive;
  using net::Transport::Send;

  Status Send(const net::Frame& frame,
              const net::Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<net::Frame> Receive(const net::Deadline& deadline) override {
    auto frame = inner_->Receive(deadline);
    if (frame.ok() && !held_) {
      held_ = true;
      gate_->Wait();
    }
    return frame;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  Gate* gate_;
  bool held_ = false;  // the relay's one far-to-near pump thread only
};

TEST(Fanout, LateReplyIsDroppedNeverMisattributed) {
  ReactorServing serving;
  TwoShards deployment(serving);
  FakeClock clock;
  FanoutOptions options;
  options.op_timeout = milliseconds(50);
  options.clock = &clock;

  // Shard 1's first reply is held until told, long past the op deadline,
  // then delivered — correct bytes, hopelessly late — and every later
  // reply flows normally on the same connection.
  Gate release_late;
  auto relay = RelayTo(
      deployment, 1,
      FaultFirstConnection([&release_late](std::unique_ptr<net::Transport> far) {
        return std::unique_ptr<net::Transport>(
            std::make_unique<HoldFirstReply>(std::move(far), &release_late));
      }));
  ASSERT_NE(relay, nullptr);
  OpenOnExit open_on_exit{release_late};
  auto fanout = ShardFanout::ConnectOnReactor(
      deployment.topology, serving.reactor(),
      {deployment.Addr(0), AddrOf(*relay)}, std::move(options));
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  const pir::QueryKeys q =
      pir::MakeIndexQuery(17, deployment.topology.domain_bits);
  std::promise<Result<Bytes>> done;
  auto result = done.get_future();
  fanout->AnswerAsync(
      q.key0, [&done](Result<Bytes> r) { done.set_value(std::move(r)); });
  clock.Advance(milliseconds(100));
  ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(result.get().status().code(), StatusCode::kDeadlineExceeded);

  // Now the stale reply arrives. Correlation by id must drop it — if it
  // were handed to the next op, that op's XOR would combine shard 1's
  // answer for the WRONG query and the bytes below would differ.
  const std::uint64_t drops_before = obs::M().fanout_stale_drops.Value();
  release_late.Open();
  ASSERT_TRUE(WaitUntil([&] {
    return obs::M().fanout_stale_drops.Value() > drops_before;
  })) << "late reply was not dropped";

  const Result<Bytes> after = fanout->Answer(q.key1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
}

TEST(Fanout, ReactorFanoutFailsPendingOpsOnReactorStop) {
  // Stopping the reactor mid-flight must complete pending ops with an
  // error (the outbound conns' on_close path), not leave callers hanging.
  const ShardTopology topology = TwoShardTopology();
  net::Reactor reactor;
  // One real listener whose connection never answers: accept via reactor
  // with a swallow-everything handler.
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  net::Reactor::Handler swallow;
  swallow.on_frame = [](net::Reactor::ConnId, net::Frame) {};
  ASSERT_TRUE(
      reactor.AddListener(std::move(*listener), std::move(swallow)).ok());
  ASSERT_TRUE(reactor.Start().ok());
  {
    FanoutOptions options;
    options.op_timeout = milliseconds(0);  // no deadline: only Stop() ends it
    auto fanout = ShardFanout::ConnectOnReactor(
        topology, reactor,
        {{"127.0.0.1", port}, {"127.0.0.1", port}}, std::move(options));
    ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

    const pir::QueryKeys q =
        pir::MakeIndexQuery(1, topology.domain_bits);
    std::promise<Result<Bytes>> done;
    auto result = done.get_future();
    fanout->AnswerAsync(q.key0, [&done](Result<Bytes> r) {
      done.set_value(std::move(r));
    });
    reactor.Stop();
    ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "reactor stop left the op pending";
    EXPECT_FALSE(result.get().ok());
  }
}

}  // namespace
}  // namespace lw::zltp
