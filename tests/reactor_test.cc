// Reactor tests: the epoll event loop under load, under abuse, and under a
// FakeClock.
//
// The torture tests run hundreds of in-process clients against one loop
// thread — well-behaved framed clients interleaved with mid-frame
// disconnectors and slow-loris tricklers — because the reactor's whole value
// proposition is that misbehaving connections cost a buffer, not a thread.
// Timer expiry (idle and write-stall) is driven by FakeClock Advance() +
// Wakeup(), so the deadline tests take zero wall-clock time.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/faulty.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/rand.h"

namespace lw::net {
namespace {

Frame MakeFrame(std::uint8_t type, std::string_view payload) {
  Frame f;
  f.type = type;
  f.payload = ToBytes(payload);
  return f;
}

// Spins (real time) until `pred` holds; the reactor runs on its own thread,
// so cross-thread observation needs a bounded wait.
bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A raw client socket, for tests that must send *partial* frames — the
// Transport API only speaks complete ones.
int RawConnect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf > 0) {
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Collects on_close reasons so tests can assert why a connection died.
struct CloseLog {
  std::mutex mu;
  std::vector<Status> reasons;
  void Add(const Status& s) {
    std::lock_guard<std::mutex> lock(mu);
    reasons.push_back(s);
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return reasons.size();
  }
  Status first() {
    std::lock_guard<std::mutex> lock(mu);
    return reasons.empty() ? Status::Ok() : reasons.front();
  }
};

Reactor::Handler EchoHandler(Reactor& reactor, CloseLog* closes = nullptr) {
  Reactor::Handler h;
  h.on_frame = [&reactor](Reactor::ConnId id, Frame frame) {
    (void)reactor.Send(id, frame);
  };
  if (closes != nullptr) {
    h.on_close = [closes](Reactor::ConnId, const Status& s) {
      closes->Add(s);
    };
  }
  return h;
}

std::uint16_t StartEcho(Reactor& reactor, CloseLog* closes = nullptr) {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  EXPECT_TRUE(
      reactor.AddListener(std::move(*listener), EchoHandler(reactor, closes))
          .ok());
  EXPECT_TRUE(reactor.Start().ok());
  return port;
}

TEST(Reactor, EchoRoundTrip) {
  Reactor reactor;
  const std::uint16_t port = StartEcho(reactor);
  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(MakeFrame(7, "ping")).ok());
  auto got = (*client)->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakeFrame(7, "ping"));
  reactor.Stop();
}

TEST(Reactor, PipelinedFramesKeepOrder) {
  Reactor reactor;
  const std::uint16_t port = StartEcho(reactor);
  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        (*client)->Send(MakeFrame(1, "msg-" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 64; ++i) {
    auto got = (*client)->Receive();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(ToString(got->payload), "msg-" + std::to_string(i));
  }
  reactor.Stop();
}

TEST(Reactor, SendToUnknownIdIsUnavailable) {
  Reactor reactor;
  StartEcho(reactor);
  EXPECT_EQ(reactor.Send(999999, MakeFrame(1, "x")).code(),
            StatusCode::kUnavailable);
  reactor.Stop();
}

TEST(Reactor, TortureManyClientsWithAbusers) {
  // 96 well-behaved framed clients, each echoing 5 frames, interleaved with
  // 48 abusers: half disconnect mid-frame (a length prefix with no body),
  // half slow-loris a whole frame one byte at a time and still expect the
  // echo. One loop thread must survive all of it with every well-behaved
  // reply intact and every connection eventually reaped.
  constexpr int kGood = 96;
  constexpr int kMidFrame = 24;
  constexpr int kLoris = 24;
  Reactor reactor;
  const std::uint16_t port = StartEcho(reactor);

  std::atomic<int> good_ok{0};
  std::atomic<int> loris_ok{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kGood; ++c) {
    threads.emplace_back([&, c] {
      auto client = TcpConnect("127.0.0.1", port);
      if (!client.ok()) return;
      Rng rng(static_cast<std::uint64_t>(c) + 7);
      for (int i = 0; i < 5; ++i) {
        Bytes payload(1 + rng.UniformInt(2000));
        rng.Fill(payload);
        Frame f;
        f.type = static_cast<std::uint8_t>(1 + (i % 5));
        f.payload = payload;
        if (!(*client)->Send(f).ok()) return;
        auto got = (*client)->Receive();
        if (!got.ok() || *got != f) return;
      }
      ++good_ok;
    });
  }
  for (int c = 0; c < kMidFrame; ++c) {
    threads.emplace_back([&] {
      const int fd = RawConnect(port);
      if (fd < 0) return;
      // Promise a 1KB frame, deliver two header bytes, vanish.
      const unsigned char partial[2] = {0x00, 0x04};
      (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
      ::close(fd);
    });
  }
  for (int c = 0; c < kLoris; ++c) {
    threads.emplace_back([&] {
      const int fd = RawConnect(port);
      if (fd < 0) return;
      // One complete 5-byte frame (type + "drip"), trickled byte by byte.
      const unsigned char wire[9] = {0x05, 0x00, 0x00, 0x00,
                                     0x02, 'd',  'r',  'i', 'p'};
      for (unsigned char b : wire) {
        if (::send(fd, &b, 1, MSG_NOSIGNAL) != 1) {
          ::close(fd);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      unsigned char echo[9] = {};
      std::size_t off = 0;
      while (off < sizeof(echo)) {
        const ssize_t n = ::recv(fd, echo + off, sizeof(echo) - off, 0);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
      if (off == sizeof(echo) && std::memcmp(echo, wire, sizeof(wire)) == 0) {
        ++loris_ok;
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(good_ok.load(), kGood);
  EXPECT_EQ(loris_ok.load(), kLoris);
  // Every client has closed its side; the loop must reap them all.
  EXPECT_TRUE(WaitUntil([&] { return reactor.connection_count() == 0; }));
  reactor.Stop();
}

TEST(Reactor, IdleTimeoutClosesSlowLoris) {
  // FakeClock-driven: a peer that never completes a frame is cut off after
  // idle_timeout with DEADLINE_EXCEEDED, in zero real time.
  FakeClock clock;
  Reactor::Options options;
  options.clock = &clock;
  options.idle_timeout = std::chrono::seconds(5);
  Reactor reactor(options);
  CloseLog closes;
  const std::uint16_t port = StartEcho(reactor, &closes);

  const int fd = RawConnect(port);
  ASSERT_GE(fd, 0);
  const unsigned char partial[3] = {0x10, 0x00, 0x00};  // header, no body
  ASSERT_EQ(::send(fd, partial, sizeof(partial), MSG_NOSIGNAL), 3);
  ASSERT_TRUE(WaitUntil([&] { return reactor.connection_count() == 1; }));

  clock.Advance(std::chrono::seconds(6));
  reactor.Wakeup();
  ASSERT_TRUE(WaitUntil([&] { return closes.size() == 1; }));
  EXPECT_EQ(closes.first().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(reactor.connection_count(), 0u);
  ::close(fd);
  reactor.Stop();
}

TEST(Reactor, IdleTimerSparesActiveConnections) {
  FakeClock clock;
  Reactor::Options options;
  options.clock = &clock;
  options.idle_timeout = std::chrono::seconds(5);
  Reactor reactor(options);
  const std::uint16_t port = StartEcho(reactor);

  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  for (int round = 0; round < 3; ++round) {
    // Each completed frame resets the idle basis, so a connection that
    // keeps talking survives arbitrarily many sub-timeout advances.
    clock.Advance(std::chrono::seconds(4));
    reactor.Wakeup();
    ASSERT_TRUE((*client)->Send(MakeFrame(1, "alive")).ok());
    auto got = (*client)->Receive();
    ASSERT_TRUE(got.ok());
  }
  EXPECT_EQ(reactor.connection_count(), 1u);
  reactor.Stop();
}

TEST(Reactor, WriteStallTimeoutClosesNonReader) {
  // A peer that stops reading while replies are queued is cut off once the
  // queue makes no progress for write_stall_timeout.
  FakeClock clock;
  Reactor::Options options;
  options.clock = &clock;
  options.write_stall_timeout = std::chrono::seconds(2);
  Reactor reactor(options);
  CloseLog closes;
  std::atomic<Reactor::ConnId> conn_id{0};
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  Reactor::Handler handler;
  handler.on_open = [&](Reactor::ConnId id) { conn_id.store(id); };
  handler.on_close = [&](Reactor::ConnId, const Status& s) { closes.Add(s); };
  ASSERT_TRUE(reactor.AddListener(std::move(*listener), handler).ok());
  ASSERT_TRUE(reactor.Start().ok());

  // Tiny client receive buffer so the kernel absorbs little and the send
  // queue actually backs up.
  const int fd = RawConnect(port, /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitUntil([&] { return conn_id.load() != 0; }));

  const std::uint64_t before_closes = obs::M().reactor_timer_closes.Value();
  Frame big;
  big.type = 1;
  big.payload.assign(4 * 1024 * 1024, 0xab);
  for (int i = 0; i < 8; ++i) {
    const Status s = reactor.Send(conn_id.load(), big);
    if (!s.ok()) break;  // queue cap — even more certainly stalled
  }
  // Let the loop flush what the kernel will take, then freeze time forward.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  clock.Advance(std::chrono::seconds(3));
  reactor.Wakeup();
  ASSERT_TRUE(WaitUntil([&] { return closes.size() == 1; }));
  EXPECT_EQ(closes.first().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(obs::M().reactor_timer_closes.Value(), before_closes);
  ::close(fd);
  reactor.Stop();
}

TEST(Reactor, PartialWriteResumeDeliversHugeReply) {
  // A reply far bigger than any socket buffer must arrive intact through
  // the EAGAIN/partial-write resume path, and the partial-write counter
  // must show that path actually ran.
  Reactor reactor;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  Frame big;
  big.type = 9;
  {
    Rng rng(42);
    big.payload.resize(24 * 1024 * 1024);
    rng.Fill(big.payload);
  }
  Reactor::Handler handler;
  handler.on_frame = [&](Reactor::ConnId id, Frame) {
    (void)reactor.Send(id, big);
  };
  ASSERT_TRUE(reactor.AddListener(std::move(*listener), handler).ok());
  ASSERT_TRUE(reactor.Start().ok());

  const std::uint64_t before = obs::M().reactor_partial_writes.Value();
  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(MakeFrame(1, "gimme")).ok());
  auto got = (*client)->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->type, big.type);
  EXPECT_EQ(got->payload, big.payload);
  EXPECT_GT(obs::M().reactor_partial_writes.Value(), before);
  reactor.Stop();
}

TEST(Reactor, SendQueueOverflowClosesConnection) {
  // A reader far enough behind to exceed the queue cap gets
  // RESOURCE_EXHAUSTED on the producer side and a close, not unbounded
  // server memory.
  Reactor::Options options;
  options.max_send_queue_bytes = 1024 * 1024;
  Reactor reactor(options);
  CloseLog closes;
  std::atomic<Reactor::ConnId> conn_id{0};
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  Reactor::Handler handler;
  handler.on_open = [&](Reactor::ConnId id) { conn_id.store(id); };
  handler.on_close = [&](Reactor::ConnId, const Status& s) { closes.Add(s); };
  ASSERT_TRUE(reactor.AddListener(std::move(*listener), handler).ok());
  ASSERT_TRUE(reactor.Start().ok());

  const int fd = RawConnect(port, /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitUntil([&] { return conn_id.load() != 0; }));

  Frame chunk;
  chunk.type = 1;
  chunk.payload.assign(64 * 1024, 0xcd);
  Status last = Status::Ok();
  for (int i = 0; i < 4096 && last.ok(); ++i) {
    last = reactor.Send(conn_id.load(), chunk);
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(WaitUntil([&] { return closes.size() == 1; }));
  ::close(fd);
  reactor.Stop();
}

TEST(Reactor, CloseAfterFlushDeliversQueuedReply) {
  // The "error frame, then hang up" shape: the reply queued before
  // CloseAfterFlush must reach the peer before the connection dies.
  Reactor reactor;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  Reactor::Handler handler;
  handler.on_frame = [&](Reactor::ConnId id, Frame frame) {
    (void)reactor.Send(id, frame);
    reactor.CloseAfterFlush(id);
  };
  ASSERT_TRUE(reactor.AddListener(std::move(*listener), handler).ok());
  ASSERT_TRUE(reactor.Start().ok());

  auto client = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Send(MakeFrame(3, "last")).ok());
  auto got = (*client)->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakeFrame(3, "last"));
  auto after = (*client)->Receive();
  EXPECT_FALSE(after.ok());
  reactor.Stop();
}

TEST(Reactor, StopClosesEverythingAndIsIdempotent) {
  Reactor reactor;
  CloseLog closes;
  const std::uint16_t port = StartEcho(reactor, &closes);
  auto c1 = TcpConnect("127.0.0.1", port);
  auto c2 = TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE(WaitUntil([&] { return reactor.connection_count() == 2; }));
  reactor.Stop();
  reactor.Stop();  // idempotent
  EXPECT_EQ(reactor.connection_count(), 0u);
  EXPECT_EQ(closes.size(), 2u);
  EXPECT_FALSE((*c1)->Receive().ok());
}

// ------------------------------------------------- outbound connections

TEST(Reactor, OutboundConnectQueuesSendsThroughHandshake) {
  Reactor reactor;
  const std::uint16_t port = StartEcho(reactor);

  std::mutex mu;
  std::vector<Frame> replies;
  std::atomic<int> opens{0};
  Reactor::Handler client;
  client.on_open = [&opens](Reactor::ConnId) { opens.fetch_add(1); };
  client.on_frame = [&](Reactor::ConnId, Frame frame) {
    std::lock_guard<std::mutex> lock(mu);
    replies.push_back(std::move(frame));
  };
  auto id = reactor.Connect("127.0.0.1", port, std::move(client));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Send immediately: the frame must queue while the non-blocking connect
  // finishes and flush on establishment — the id is usable from dial time.
  ASSERT_TRUE(reactor.Send(*id, MakeFrame(7, "through-the-handshake")).ok());
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return replies.size() == 1;
  }));
  EXPECT_EQ(opens.load(), 1);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(replies[0], MakeFrame(7, "through-the-handshake"));
  reactor.Stop();
}

TEST(Reactor, OutboundConnectRefusedSurfacesOnClose) {
  // Grab a free port, then close the listener so the dial is refused.
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener->bound_port();
  }
  Reactor reactor;
  ASSERT_TRUE(reactor.Start().ok());
  CloseLog closes;
  Reactor::Handler client;
  client.on_frame = [](Reactor::ConnId, Frame) {};
  client.on_close = [&closes](Reactor::ConnId, const Status& why) {
    closes.Add(why);
  };
  auto id = reactor.Connect("127.0.0.1", dead_port, std::move(client));
  ASSERT_TRUE(id.ok()) << id.status().ToString();  // dial starts; fails async
  ASSERT_TRUE(WaitUntil([&] { return closes.size() == 1; }));
  EXPECT_FALSE(closes.first().ok()) << "refused connect reported Ok close";
  reactor.Stop();
}

TEST(Reactor, EstablishedOutboundConnIsExemptFromIdleTimeout) {
  // A healthy outbound link is quiet between requests; the slow-loris
  // idle timer must not reap it once established (inbound conns and
  // unfinished handshakes stay covered).
  // The echo peer lives on its own timer-free reactor so only the
  // outbound side is under test (a shared reactor would idle-reap the
  // inbound echo conn and kill the link from the other end).
  Reactor server_reactor;
  const std::uint16_t port = StartEcho(server_reactor);

  FakeClock clock;
  Reactor::Options options;
  options.clock = &clock;
  options.idle_timeout = std::chrono::milliseconds(50);
  Reactor reactor(options);
  ASSERT_TRUE(reactor.Start().ok());

  CloseLog closes;
  std::mutex mu;
  std::vector<Frame> replies;
  Reactor::Handler client;
  client.on_frame = [&](Reactor::ConnId, Frame frame) {
    std::lock_guard<std::mutex> lock(mu);
    replies.push_back(std::move(frame));
  };
  client.on_close = [&closes](Reactor::ConnId, const Status& why) {
    closes.Add(why);
  };
  auto id = reactor.Connect("127.0.0.1", port, std::move(client));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(reactor.Send(*id, MakeFrame(3, "warm-up")).ok());
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return !replies.empty();
  }));

  // Way past the idle timeout with no traffic: the outbound conn stays.
  clock.Advance(std::chrono::seconds(5));
  reactor.Wakeup();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(closes.size(), 0u) << closes.first().ToString();

  // Still alive and serving.
  ASSERT_TRUE(reactor.Send(*id, MakeFrame(3, "still-here")).ok());
  ASSERT_TRUE(WaitUntil([&] {
    std::lock_guard<std::mutex> lock(mu);
    return replies.size() == 2;
  }));
  reactor.Stop();
  server_reactor.Stop();
}

// ----------------------------------------------- tcp send-path regression

TEST(Tcp, InfiniteDeadlineSendSurvivesBackpressure) {
  // Regression for the send path: a frame bigger than both socket buffers,
  // sent with an infinite deadline, must wait out EAGAIN (poll, resume) —
  // not fail and not spin. The receiver starts reading only after the
  // sender is deep into backpressure.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto client = TcpConnect("127.0.0.1", listener->bound_port());
  ASSERT_TRUE(client.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());

  Frame big;
  big.type = 2;
  {
    Rng rng(77);
    big.payload.resize(32 * 1024 * 1024);
    rng.Fill(big.payload);
  }
  std::thread sender([&] {
    EXPECT_TRUE((*client)->Send(big, Deadline::Infinite()).ok());
  });
  // Give the sender time to fill the kernel buffers and hit EAGAIN.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto got = (*server_side)->Receive();
  sender.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->payload, big.payload);
}

TEST(Tcp, FlakySendRecoversAfterBlips) {
  // The Flaky decorator injects transient UNAVAILABLE blips; a simple
  // resend loop (what the session retry layer does) must get the frame
  // through on the first post-blip attempt.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto raw = TcpConnect("127.0.0.1", listener->bound_port());
  ASSERT_TRUE(raw.ok());
  auto server_side = listener->Accept();
  ASSERT_TRUE(server_side.ok());

  FlakyTransport flaky(std::move(*raw), /*failures=*/2);
  const Frame f = MakeFrame(4, "through the blips");
  int attempts = 0;
  Status s = UnavailableError("not yet");
  while (!s.ok() && attempts < 10) {
    ++attempts;
    s = flaky.Send(f);
  }
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(attempts, 3) << "two injected blips, then success";
  auto got = (*server_side)->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, f);
}

}  // namespace
}  // namespace lw::net
