// ZLTP protocol tests: message codecs, the PirStore and its §5.2 sharded
// equivalent, batching, and full client/server sessions served on the epoll
// reactor over loopback TCP, in both modes of operation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/tcp.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "reactor_serving.h"
#include "util/clock.h"
#include "util/rand.h"
#include "zltp/batch.h"
#include "zltp/client.h"
#include "zltp/frontend.h"
#include "zltp/messages.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::zltp {
namespace {

using testutil::ReactorServing;

PirStoreConfig SmallStoreConfig(int domain_bits = 12,
                                std::size_t record_size = 128) {
  PirStoreConfig c;
  c.domain_bits = domain_bits;
  c.record_size = record_size;
  c.keyword_seed = Bytes(16, 0x5a);
  return c;
}

// ------------------------------------------------------------- messages

TEST(Messages, ClientHelloRoundTrip) {
  ClientHello m;
  m.supported_modes = {Mode::kTwoServerPir, Mode::kEnclave};
  auto decoded = DecodeClientHello(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->supported_modes, m.supported_modes);
}

TEST(Messages, ServerHelloRoundTrip) {
  ServerHello m;
  m.mode = Mode::kTwoServerPir;
  m.server_role = 1;
  m.domain_bits = 22;
  m.record_size = 4096;
  m.keyword_seed = Bytes(16, 7);
  auto decoded = DecodeServerHello(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->server_role, 1);
  EXPECT_EQ(decoded->domain_bits, 22);
  EXPECT_EQ(decoded->record_size, 4096u);
  EXPECT_EQ(decoded->keyword_seed, m.keyword_seed);
  EXPECT_TRUE(decoded->enclave_public_key.empty());
}

TEST(Messages, GetRequestResponseRoundTrip) {
  GetRequest req;
  req.request_id = 42;
  req.body = ToBytes("dpf-key-bytes");
  auto dreq = DecodeGetRequest(Encode(req));
  ASSERT_TRUE(dreq.ok());
  EXPECT_EQ(dreq->request_id, 42u);
  EXPECT_EQ(dreq->body, req.body);

  GetResponse resp;
  resp.request_id = 42;
  resp.body = ToBytes("record");
  auto dresp = DecodeGetResponse(Encode(resp));
  ASSERT_TRUE(dresp.ok());
  EXPECT_EQ(dresp->request_id, 42u);
}

TEST(Messages, ErrorRoundTrip) {
  ErrorMsg e;
  e.code = StatusCode::kNotFound;
  e.message = "nope";
  auto decoded = DecodeError(Encode(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kNotFound);
  EXPECT_EQ(decoded->message, "nope");
  EXPECT_EQ(StatusFromError(*decoded).code(), StatusCode::kNotFound);
}

TEST(Messages, DecodeRejectsWrongType) {
  EXPECT_FALSE(DecodeServerHello(Encode(ClientHello{})).ok());
  EXPECT_FALSE(DecodeGetRequest(EncodeBye()).ok());
}

TEST(Messages, DecodeRejectsTruncated) {
  net::Frame f = Encode(GetRequest{1, ToBytes("body")});
  f.payload.resize(f.payload.size() - 2);
  EXPECT_FALSE(DecodeGetRequest(f).ok());
}

TEST(Messages, DecodeRejectsTrailingGarbageEveryType) {
  // Pre-fix, decoders stopped at the last expected field and accepted any
  // suffix, so one frame had many byte representations. Strict framing
  // (ExpectEnd) makes encoding a bijection — and every fuzz roundtrip
  // check depends on that.
  ClientHello ch;
  ch.supported_modes = {Mode::kTwoServerPir};
  net::Frame f1 = Encode(ch);
  f1.payload.push_back(0);
  EXPECT_FALSE(DecodeClientHello(f1).ok());

  ServerHello sh;
  sh.domain_bits = 20;
  sh.keyword_seed = Bytes(16, 7);
  net::Frame f2 = Encode(sh);
  f2.payload.push_back(0);
  EXPECT_FALSE(DecodeServerHello(f2).ok());

  net::Frame f3 = Encode(GetRequest{1, ToBytes("body")});
  f3.payload.push_back(0);
  EXPECT_FALSE(DecodeGetRequest(f3).ok());

  net::Frame f4 = Encode(GetResponse{1, ToBytes("share")});
  f4.payload.push_back(0);
  EXPECT_FALSE(DecodeGetResponse(f4).ok());

  net::Frame f5 = Encode(ErrorMsg{StatusCode::kNotFound, "nope"});
  f5.payload.push_back(0);
  EXPECT_FALSE(DecodeError(f5).ok());
}

TEST(Messages, ServerHelloRejectsOutOfRangeFields) {
  // Pre-fix these decoded fine and poisoned the client's universe/DPF
  // configuration (domain_bits drives allocation sizes downstream).
  ServerHello m;
  m.domain_bits = 20;
  m.keyword_seed = Bytes(16, 7);

  ServerHello bad_bits = m;
  bad_bits.domain_bits = 41;  // > dpf::kMaxDomainBits
  EXPECT_FALSE(DecodeServerHello(Encode(bad_bits)).ok());

  ServerHello bad_seed = m;
  bad_seed.keyword_seed = Bytes(17, 7);  // not empty and not kSeedSize
  EXPECT_FALSE(DecodeServerHello(Encode(bad_seed)).ok());

  ServerHello bad_key = m;
  bad_key.enclave_public_key = Bytes(33, 1);  // not empty and not 32
  EXPECT_FALSE(DecodeServerHello(Encode(bad_key)).ok());

  // Still-legal shapes: enclave mode with domain_bits 0 and empty seed.
  ServerHello enclave;
  enclave.mode = Mode::kEnclave;
  enclave.enclave_public_key = Bytes(32, 9);
  EXPECT_TRUE(DecodeServerHello(Encode(enclave)).ok());
}

// -------------------------------------------------------------- PirStore

TEST(PirStore, PublishAndDirectLookup) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("payload-x")).ok());
  EXPECT_TRUE(store.Contains("a.com/x"));
  EXPECT_EQ(ToString(store.DirectLookup("a.com/x").value()), "payload-x");
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(PirStore, RepublishUpdatesContent) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("v1")).ok());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("v2")).ok());
  EXPECT_EQ(ToString(store.DirectLookup("a.com/x").value()), "v2");
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(PirStore, OversizedPayloadRejected) {
  PirStore store(SmallStoreConfig(12, 64));
  EXPECT_FALSE(store.Publish("k", Bytes(100, 1)).ok());
  EXPECT_FALSE(store.Contains("k"));  // registration rolled back
  // And publishing something valid under the same key afterwards works.
  EXPECT_TRUE(store.Publish("k", Bytes(10, 1)).ok());
}

TEST(PirStore, UnpublishRemoves) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  ASSERT_TRUE(store.Unpublish("k").ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_FALSE(store.DirectLookup("k").ok());
  EXPECT_FALSE(store.Unpublish("k").ok());
}

TEST(PirStore, CollisionReported) {
  // Tiny domain: many keys must collide.
  PirStore store(SmallStoreConfig(4, 64));
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const Status s =
        store.Publish("key-" + std::to_string(i), ToBytes("v"));
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCollision);
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 0);
}

TEST(PirStore, AnswerQueryRetrievesRecord) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("page", ToBytes("content")).ok());
  const std::uint64_t index = store.mapper().IndexOf("page");
  const pir::QueryKeys q = pir::MakeIndexQuery(index, store.domain_bits());
  const Bytes a0 = store.AnswerQuery(q.key0).value();
  const Bytes a1 = store.AnswerQuery(q.key1).value();
  const Bytes record = pir::CombineAnswers(a0, a1).value();
  auto un = pir::UnpackRecord(record);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(ToString(un->payload), "content");
  EXPECT_EQ(un->fingerprint, store.mapper().Fingerprint("page"));
}

TEST(PirStore, AnswerRejectsWrongDomain) {
  PirStore store(SmallStoreConfig(12, 128));
  const pir::QueryKeys q = pir::MakeIndexQuery(0, 10);  // wrong domain
  EXPECT_FALSE(store.AnswerQuery(q.key0).ok());
}

// Paper §5.2 on ShardDataServer: the XOR of every shard's sub-tree answer
// equals the unsharded store's answer. Shard domains under 7 bits split
// the key past the end of the DPF tree (leaf_stride_bits).
class ShardedStoreTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedStoreTest, ShardedAnswersMatchSingleNode) {
  ShardTopology topology;
  topology.domain_bits = 10;
  topology.top_bits = GetParam();
  topology.record_size = 96;
  PirStore single(SmallStoreConfig(10, 96));
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  for (std::size_t s = 0; s < topology.shard_count(); ++s) {
    shards.push_back(std::make_unique<ShardDataServer>(topology, s));
  }
  const pir::KeywordMapper& mapper = single.mapper();
  for (int i = 0; i < 50; ++i) {
    const std::string key = "site.com/page-" + std::to_string(i);
    const Bytes payload = ToBytes("content-" + std::to_string(i));
    if (!single.Publish(key, payload).ok()) continue;  // a collision
    const std::uint64_t index = mapper.IndexOf(key);
    const Bytes record =
        pir::PackRecord(mapper.Fingerprint(key), payload, topology.record_size)
            .value();
    ASSERT_TRUE(
        shards[index & (topology.shard_count() - 1)]->Load(index, record).ok());
  }
  std::size_t sharded_records = 0;
  for (const auto& shard : shards) sharded_records += shard->record_count();
  EXPECT_EQ(single.record_count(), sharded_records);

  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    const std::uint64_t index = rng.UniformInt(1 << 10);
    const pir::QueryKeys q = pir::MakeIndexQuery(index, 10);
    const auto subkeys = dpf::SplitForShards(q.key0, topology.top_bits);
    Bytes combined(topology.record_size, 0);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      auto answer = shards[s]->Answer(subkeys[s]);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      XorInto(combined, *answer);
    }
    EXPECT_EQ(single.AnswerQuery(q.key0).value(), combined)
        << "index " << index;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedStoreTest,
                         ::testing::Values(1, 2, 4, 6));

TEST(PirStore, BatchMatchesIndividual) {
  PirStore store(SmallStoreConfig(10, 96));
  for (int i = 0; i < 30; ++i) {
    (void)store.Publish("p" + std::to_string(i), ToBytes("v"));
  }
  std::vector<dpf::DpfKey> keys;
  std::vector<Bytes> individual;
  Rng rng(11);
  for (int i = 0; i < 7; ++i) {
    const pir::QueryKeys q = pir::MakeIndexQuery(rng.UniformInt(1 << 10), 10);
    keys.push_back(q.key0);
    individual.push_back(store.AnswerQuery(q.key0).value());
  }
  auto batch = store.AnswerBatch(keys);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(*batch, individual);
}

TEST(PirStore, KeysEnumeratesPublished) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a", ToBytes("1")).ok());
  ASSERT_TRUE(store.Publish("b", ToBytes("2")).ok());
  auto keys = store.Keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------- batcher

TEST(BatchScheduler, SingleSubmitWorks) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  BatchScheduler batcher(store, BatchConfig{});
  const pir::QueryKeys q =
      pir::MakeIndexQuery(store.mapper().IndexOf("k"), store.domain_bits());
  auto a0 = batcher.Submit(q.key0);
  ASSERT_TRUE(a0.ok());
  EXPECT_EQ(*a0, store.AnswerQuery(q.key0).value());
}

TEST(BatchScheduler, ConcurrentSubmitsShareBatches) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 20; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(50);
  BatchScheduler batcher(store, config);

  constexpr int kClients = 24;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const pir::QueryKeys q = pir::MakeIndexQuery(
          static_cast<std::uint64_t>(c), store.domain_bits());
      auto answer = batcher.Submit(q.key0);
      if (!answer.ok() || *answer != store.AnswerQuery(q.key0).value()) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  // With a 50 ms window, the 24 clients must have shared batches.
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kClients));
  EXPECT_GT(stats.average_batch_size(), 1.0);
}

TEST(BatchScheduler, RejectsWrongDomainWithoutPoisoningBatch) {
  PirStore store(SmallStoreConfig(12, 128));
  BatchScheduler batcher(store, BatchConfig{});
  const pir::QueryKeys bad = pir::MakeIndexQuery(0, 8);
  EXPECT_FALSE(batcher.Submit(bad.key0).ok());
  const pir::QueryKeys good = pir::MakeIndexQuery(0, 12);
  EXPECT_TRUE(batcher.Submit(good.key0).ok());
}

TEST(BatchScheduler, StopFailsPendingAndFutureSubmits) {
  PirStore store(SmallStoreConfig());
  BatchScheduler batcher(store, BatchConfig{});
  batcher.Stop();
  const pir::QueryKeys q = pir::MakeIndexQuery(0, store.domain_bits());
  EXPECT_EQ(batcher.Submit(q.key0).status().code(),
            StatusCode::kUnavailable);
}

// Spins (real time) until the scheduler has admitted `n` requests, so tests
// driving a FakeClock can sequence submissions against batch formation
// without ever sleeping for a fixed interval and hoping.
void WaitForAdmitted(const BatchScheduler& batcher, std::uint64_t n) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (batcher.stats().requests < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "scheduler never admitted " << n << " requests";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(BatchScheduler, QueueLimitShedsWithResourceExhausted) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  FakeClock clock;
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(1000);  // of fake time
  config.queue_limit = 2;
  config.clock = &clock;
  BatchScheduler batcher(store, config);

  // Two admitted riders park in the queue: the co-rider window is open and
  // fake time is frozen, so the batch cannot close underneath the test.
  const pir::QueryKeys q = pir::MakeIndexQuery(1, store.domain_bits());
  std::vector<std::thread> riders;
  std::atomic<int> ok_answers{0};
  for (int i = 0; i < 2; ++i) {
    riders.emplace_back([&] {
      if (batcher.Submit(q.key0).ok()) ++ok_answers;
    });
  }
  WaitForAdmitted(batcher, 2);

  // The third submission finds the queue at queue_limit and is refused
  // immediately — admission control answers without blocking.
  const auto shed = batcher.Submit(q.key0);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().shed, 1u);

  // Opening the window lets the parked riders complete normally: shedding
  // rejected the overflow request only, not the queue contents. Advance in
  // window-sized steps: the worker stamps the batch-open time when it first
  // sees a rider, so a single jump could land before that stamp.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ok_answers.load() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    clock.Advance(std::chrono::milliseconds(1100));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : riders) t.join();
  EXPECT_EQ(ok_answers.load(), 2);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.wait_closes, 1u);
}

TEST(BatchScheduler, ExpiredCoRiderFailsWhileFreshOnesRide) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  FakeClock clock;
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(100);
  config.deadline_budget = std::chrono::milliseconds(5);
  config.clock = &clock;
  BatchScheduler batcher(store, config);

  // Rider A enqueues at t=0 with deadline t=5ms.
  const pir::QueryKeys qa = pir::MakeIndexQuery(1, store.domain_bits());
  Result<Bytes> answer_a = InternalError("unset");
  std::thread rider_a([&] { answer_a = batcher.Submit(qa.key0); });
  WaitForAdmitted(batcher, 1);

  // Rider B enqueues at t=3ms with deadline t=8ms.
  clock.Advance(std::chrono::milliseconds(3));
  const pir::QueryKeys qb = pir::MakeIndexQuery(2, store.domain_bits());
  Result<Bytes> answer_b = InternalError("unset");
  std::thread rider_b([&] { answer_b = batcher.Submit(qb.key0); });
  WaitForAdmitted(batcher, 2);

  // Jump to t=7ms: past the earliest deadline, so the batch closes
  // (deadline-driven — 5ms beats the 100ms co-rider window), rider A is
  // already expired at formation, and rider B still makes it.
  clock.Advance(std::chrono::milliseconds(4));
  rider_a.join();
  rider_b.join();
  EXPECT_EQ(answer_a.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(answer_b.ok()) << answer_b.status().ToString();
  EXPECT_EQ(*answer_b, store.AnswerQuery(qb.key0).value());

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_closes, 1u);
  // average_batch_size counts only riders that actually rode.
  EXPECT_DOUBLE_EQ(stats.average_batch_size(), 1.0);
}

TEST(BatchScheduler, StopAnswersEveryInFlightRequest) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 10; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  // A long window parks all riders in the queue until Stop() drains them.
  BatchConfig config;
  config.max_batch = 64;
  config.max_wait = std::chrono::milliseconds(10000);
  BatchScheduler batcher(store, config);

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const pir::QueryKeys q = pir::MakeIndexQuery(
          static_cast<std::uint64_t>(c), store.domain_bits());
      const auto answer = batcher.Submit(q.key0);
      // Stop() promises a real answer for everything already admitted.
      if (!answer.ok() || *answer != store.AnswerQuery(q.key0).value()) {
        ++wrong;
      }
    });
  }
  WaitForAdmitted(batcher, kClients);
  batcher.Stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(batcher.stats().requests, static_cast<std::uint64_t>(kClients));
}

// --------------------------------------------- end-to-end PIR sessions

class PirSessionTest : public ::testing::Test {
 protected:
  PirSessionTest()
      : store_(SmallStoreConfig()),
        port0_(serving_.Serve(serving_.Make<ZltpPirServer>(store_, 0))),
        port1_(serving_.Serve(serving_.Make<ZltpPirServer>(store_, 1))) {}

  // In the real system the two logical servers hold replicas in separate
  // trust domains; sharing one PirStore in-process is equivalent for
  // correctness tests.
  Result<PirSession> Connect() {
    return PirSession::Establish(EstablishOptions::FromTransports(
        ReactorServing::Connect(port0_), ReactorServing::Connect(port1_)));
  }

  PirStore store_;
  ReactorServing serving_;  // after store_: the servers read it
  std::uint16_t port0_;
  std::uint16_t port1_;
};

TEST_F(PirSessionTest, EstablishNegotiatesParameters) {
  auto session = Connect();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->domain_bits(), store_.domain_bits());
  EXPECT_EQ(session->record_size(), store_.record_size());
  EXPECT_EQ(session->keyword_seed(), store_.config().keyword_seed);
  session->Close();
}

TEST_F(PirSessionTest, PrivateGetRoundTrip) {
  ASSERT_TRUE(store_.Publish("nytimes.com/africa", ToBytes("uganda news")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto value = session->PrivateGet("nytimes.com/africa");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "uganda news");
  session->Close();
}

TEST_F(PirSessionTest, MissingKeyIsNotFound) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto value = session->PrivateGet("never-published");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  session->Close();
}

TEST_F(PirSessionTest, ManyKeysRoundTrip) {
  std::vector<std::string> published;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "site/page" + std::to_string(i);
    if (store_.Publish(key, ToBytes("content" + std::to_string(i))).ok()) {
      published.push_back(key);
    }
  }
  ASSERT_GT(published.size(), 30u);
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  for (const auto& key : published) {
    auto value = session->PrivateGet(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    EXPECT_EQ(ToString(*value),
              "content" + key.substr(std::string("site/page").size()));
  }
  session->Close();
}

TEST_F(PirSessionTest, DummyGetIndistinguishableTrafficCost) {
  ASSERT_TRUE(store_.Publish("real-page", ToBytes("data")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());

  const auto before = session->traffic();
  ASSERT_TRUE(session->PrivateGet("real-page").ok());
  const auto after_real = session->traffic();
  ASSERT_TRUE(session->DummyGet().ok());
  const auto after_dummy = session->traffic();

  const std::uint64_t real_sent = after_real.bytes_sent - before.bytes_sent;
  const std::uint64_t dummy_sent =
      after_dummy.bytes_sent - after_real.bytes_sent;
  EXPECT_EQ(real_sent, dummy_sent);
  const std::uint64_t real_recv =
      after_real.bytes_received - before.bytes_received;
  const std::uint64_t dummy_recv =
      after_dummy.bytes_received - after_real.bytes_received;
  EXPECT_EQ(real_recv, dummy_recv);
}

TEST_F(PirSessionTest, PublishAfterConnectIsVisible) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->PrivateGet("late").ok());
  ASSERT_TRUE(store_.Publish("late", ToBytes("arrived")).ok());
  EXPECT_EQ(ToString(session->PrivateGet("late").value()), "arrived");
}

// Logs "send<server>" / "recv<server>" each time the client calls into
// its transport, so a test can assert the order of a session's I/O.
class OrderRecordingTransport final : public net::Transport {
 public:
  OrderRecordingTransport(std::unique_ptr<net::Transport> inner,
                          std::string server, std::vector<std::string>* log)
      : inner_(std::move(inner)), server_(std::move(server)), log_(log) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const net::Frame& frame,
              const net::Deadline& deadline) override {
    log_->push_back("send" + server_);
    return inner_->Send(frame, deadline);
  }
  Result<net::Frame> Receive(const net::Deadline& deadline) override {
    log_->push_back("recv" + server_);
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::string server_;
  std::vector<std::string>* log_;
};

TEST_F(PirSessionTest, SingleGetSendsToBothServersBeforeReceiving) {
  ASSERT_TRUE(store_.Publish("k", ToBytes("v")).ok());
  std::vector<std::string> log;
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      std::make_unique<OrderRecordingTransport>(
          ReactorServing::Connect(port0_), "0", &log),
      std::make_unique<OrderRecordingTransport>(
          ReactorServing::Connect(port1_), "1", &log)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // One round trip: both shares are on the wire before either reply is
  // awaited.
  const std::vector<std::string> one_round_trip = {"send0", "send1", "recv0",
                                                   "recv1"};
  log.clear();
  auto value = session->PrivateGet("k");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "v");
  EXPECT_EQ(log, one_round_trip);
  log.clear();
  ASSERT_TRUE(session->DummyGet().ok());
  EXPECT_EQ(log, one_round_trip);
  session->Close();
}

TEST_F(PirSessionTest, ReplyUnderUnsentIdIsProtocolError) {
  // A role-0 server that answers the hello honestly, then answers a GET
  // under a request id the client never sent.
  net::TransportPair pair = net::CreateInMemoryPair();
  std::thread rogue([server = std::move(pair.b), this] {
    const net::Deadline deadline =
        net::Deadline::After(std::chrono::seconds(30));
    if (!server->Receive(deadline).ok()) return;
    ServerHello hello;
    hello.server_role = 0;
    hello.domain_bits = static_cast<std::uint8_t>(store_.domain_bits());
    hello.record_size = static_cast<std::uint32_t>(store_.record_size());
    hello.keyword_seed = store_.config().keyword_seed;
    if (!server->Send(Encode(hello), deadline).ok()) return;
    auto in = server->Receive(deadline);
    if (!in.ok()) return;
    auto request = DecodeGetRequest(*in);
    if (!request.ok()) return;
    GetResponse response;
    response.request_id = request->request_id + 1000;
    response.body = Bytes(store_.record_size(), 0);
    (void)server->Send(Encode(response), deadline);
  });
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      std::move(pair.a), ReactorServing::Connect(port1_)));
  Status batch = session.status();
  if (session.ok()) batch = session->PrivateGetBatch({"k"}).status();
  rogue.join();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // The whole op fails, not only the slot the reply was meant for.
  EXPECT_EQ(batch.code(), StatusCode::kProtocolError) << batch.ToString();
}

TEST(PirSessionErrors, BothConnectionsSameRoleRejected) {
  PirStore store(SmallStoreConfig());
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<ZltpPirServer>(store, 0));
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      ReactorServing::Connect(port0),
      ReactorServing::Connect(port0)));  // same role twice!
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PirSessionErrors, MismatchedUniversesRejected) {
  PirStore store_a(SmallStoreConfig(12, 128));
  PirStore store_b(SmallStoreConfig(14, 128));  // different domain
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<ZltpPirServer>(store_a, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<ZltpPirServer>(store_b, 1));
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      ReactorServing::Connect(port0), ReactorServing::Connect(port1)));
  EXPECT_FALSE(session.ok());
}

TEST(PirSessionErrors, ServerRejectsUnsupportedMode) {
  PirStore store(SmallStoreConfig());
  ReactorServing serving;
  std::unique_ptr<net::Transport> client = ReactorServing::Connect(
      serving.Serve(serving.Make<ZltpPirServer>(store, 0)));
  ASSERT_NE(client, nullptr);
  // An enclave-only client hello.
  ClientHello hello;
  hello.supported_modes = {Mode::kEnclave};
  ASSERT_TRUE(client->Send(Encode(hello), net::Deadline::Infinite()).ok());
  auto reply = client->Receive(net::Deadline::Infinite());
  ASSERT_TRUE(reply.ok());
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- enclave-mode session

TEST(EnclaveSessionTest, EndToEnd) {
  oram::EnclaveConfig config;
  config.capacity = 64;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  ASSERT_TRUE(enclave.Put("wiki/Uganda", ToBytes("landlocked country")).ok());

  ReactorServing serving;
  const std::uint16_t port =
      serving.Serve(serving.Make<ZltpEnclaveServer>(enclave));

  auto session = EnclaveSession::Establish(
      EstablishOptions::FromTransports(ReactorServing::Connect(port)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto value = session->PrivateGet("wiki/Uganda");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "landlocked country");

  auto missing = session->PrivateGet("wiki/Atlantis");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Close();
}

// ----------------------------------------- wire conformance, every endpoint

// The server side of ZLTP, driven with raw frames against each of the four
// endpoints: a malformed hello, GetRequest or key is a PROTOCOL_ERROR and
// then a close, a failed answer is an error frame on a connection that
// stays open, and Bye closes cleanly. The shard link has no hello.
enum class Endpoint { kPir, kEnclave, kFrontEnd, kShard };

class WireConformance : public ::testing::TestWithParam<Endpoint> {
 protected:
  static ShardTopology Topology() {
    ShardTopology t;
    t.domain_bits = 12;
    t.top_bits = 2;
    t.record_size = 128;
    return t;
  }

  static oram::EnclaveConfig EnclaveConfig() {
    oram::EnclaveConfig config;
    config.capacity = 64;
    config.value_size = 128;
    return config;
  }

  void SetUp() override {
    std::uint16_t port = 0;
    switch (GetParam()) {
      case Endpoint::kPir:
        port = serving_.Serve(serving_.Make<ZltpPirServer>(store_, 0));
        break;
      case Endpoint::kEnclave:
        port = serving_.Serve(serving_.Make<ZltpEnclaveServer>(enclave_));
        break;
      case Endpoint::kFrontEnd: {
        std::vector<ShardFanout::ShardAddr> addrs;
        for (std::size_t s = 0; s < Topology().shard_count(); ++s) {
          addrs.push_back({"127.0.0.1", serving_.Serve(serving_.Make<
                                            ShardDataServer>(Topology(), s))});
        }
        auto fanout = ShardFanout::ConnectOnReactor(
            Topology(), serving_.reactor(), std::move(addrs));
        ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();
        port = serving_.Serve(serving_.Make<FrontEndServer>(
            0, store_.config().keyword_seed, std::move(*fanout)));
        break;
      }
      case Endpoint::kShard:
        port = serving_.Serve(serving_.Make<ShardDataServer>(Topology(), 0));
        break;
    }
    client_ = ReactorServing::Connect(port);
    ASSERT_NE(client_, nullptr);
  }

  bool has_hello() const { return GetParam() != Endpoint::kShard; }

  void Send(const net::Frame& frame) {
    const Status sent = client_->Send(frame, Deadline());
    ASSERT_TRUE(sent.ok()) << sent.ToString();
  }

  Result<net::Frame> Receive() { return client_->Receive(Deadline()); }

  // A valid hello in this endpoint's mode; no-op on the shard link.
  void Hello() {
    if (!has_hello()) return;
    ClientHello hello;
    hello.supported_modes = {GetParam() == Endpoint::kEnclave
                                 ? Mode::kEnclave
                                 : Mode::kTwoServerPir};
    Send(Encode(hello));
    auto reply = Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(DecodeServerHello(*reply).ok());
  }

  void ExpectError(StatusCode code) {
    auto reply = Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto error = DecodeError(*reply);
    ASSERT_TRUE(error.ok()) << "frame type " << int{reply->type};
    EXPECT_EQ(error->code, code) << error->message;
  }

  // The server hung up with nothing more to send.
  void ExpectEof() {
    auto reply = Receive();
    ASSERT_FALSE(reply.ok()) << "frame type " << int{reply->type};
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable)
        << reply.status().ToString();
  }

  static net::Frame Get(Bytes body) {
    GetRequest request;
    request.request_id = 7;
    request.body = std::move(body);
    return Encode(request);
  }

  // A body the endpoint parses but cannot answer: a key of the wrong
  // domain or depth, or a sealed request too short to open.
  Bytes UnanswerableBody() const {
    switch (GetParam()) {
      case Endpoint::kEnclave:
        return Bytes(8, 0x01);
      case Endpoint::kShard:  // depth 11; the shard expects 10
        return dpf::SplitForShards(dpf::Generate(1, 12).key0, 1)[0]
            .Serialize();
      default:
        return dpf::Generate(1, 10).key0.Serialize();
    }
  }

 private:
  static net::Deadline Deadline() {
    return net::Deadline::After(std::chrono::seconds(10));
  }

  // Declared before serving_: the servers reference them.
  PirStore store_{SmallStoreConfig()};
  oram::MemoryStorage storage_{
      oram::KvEnclave::RequiredStorageBuckets(EnclaveConfig())};
  oram::KvEnclave enclave_{EnclaveConfig(), storage_};
  ReactorServing serving_;
  std::unique_ptr<net::Transport> client_;
};

TEST_P(WireConformance, BadVersionIsProtocolErrorThenClose) {
  ClientHello hello;
  hello.version = kProtocolVersion + 1;
  hello.supported_modes = {Mode::kTwoServerPir, Mode::kEnclave};
  // On the shard link a hello is not a GetRequest: malformed all the same.
  Send(Encode(hello));
  ExpectError(StatusCode::kProtocolError);
  ExpectEof();
}

TEST_P(WireConformance, GetBeforeHelloIsProtocolErrorThenClose) {
  if (!has_hello()) {
    // The hello-less shard link answers its first GET.
    Send(Get(dpf::SplitForShards(dpf::Generate(3, 12).key0, 2)[0]
                 .Serialize()));
    auto reply = Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = DecodeGetResponse(*reply);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->request_id, 7u);
    EXPECT_EQ(response->body.size(), Topology().record_size);
    return;
  }
  Send(Get(UnanswerableBody()));
  ExpectError(StatusCode::kProtocolError);
  ExpectEof();
}

TEST_P(WireConformance, TruncatedGetRequestIsProtocolErrorThenClose) {
  Hello();
  net::Frame truncated;
  truncated.type = static_cast<std::uint8_t>(MsgType::kGetRequest);
  truncated.payload = {0x00, 0x07};
  Send(truncated);
  ExpectError(StatusCode::kProtocolError);
  ExpectEof();
}

TEST_P(WireConformance, UndecodableKeyIsProtocolErrorThenClose) {
  Hello();
  Send(Get(Bytes{0xde, 0xad, 0xbe}));
  ExpectError(StatusCode::kProtocolError);
  if (GetParam() == Endpoint::kEnclave) {
    // The enclave relays its sealed body unparsed, so there is no key to
    // reject: the enclave's own refusal is a failed answer (below).
    Send(EncodeBye());
  }
  ExpectEof();
}

TEST_P(WireConformance, FailedAnswerIsErrorFrameOnOpenConnection) {
  Hello();
  // Two error frames: the first failure did not close the connection.
  Send(Get(UnanswerableBody()));
  Send(Get(UnanswerableBody()));
  ExpectError(StatusCode::kProtocolError);
  ExpectError(StatusCode::kProtocolError);
  Send(EncodeBye());
  ExpectEof();
}

TEST_P(WireConformance, ByeClosesCleanly) {
  Hello();
  Send(EncodeBye());
  ExpectEof();
}

INSTANTIATE_TEST_SUITE_P(
    Endpoints, WireConformance,
    ::testing::Values(Endpoint::kPir, Endpoint::kEnclave, Endpoint::kFrontEnd,
                      Endpoint::kShard),
    [](const ::testing::TestParamInfo<Endpoint>& info) {
      switch (info.param) {
        case Endpoint::kPir:
          return "Pir";
        case Endpoint::kEnclave:
          return "Enclave";
        case Endpoint::kFrontEnd:
          return "FrontEnd";
        case Endpoint::kShard:
          return "Shard";
      }
      return "Unknown";
    });

// ------------------------------------------------- pipelined batch GETs

TEST_F(PirSessionTest, BatchMatchesIndividualGets) {
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "batch/page" + std::to_string(i);
    if (store_.Publish(key, ToBytes("v" + std::to_string(i))).ok()) {
      keys.push_back(key);
    }
  }
  keys.push_back("batch/unpublished");  // NOT_FOUND inside the batch
  auto session = Connect();
  ASSERT_TRUE(session.ok());

  auto batch = session->PrivateGetBatch(keys, /*extra_dummies=*/2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto individual = session->PrivateGet(keys[i]);
    EXPECT_EQ((*batch)[i].ok(), individual.ok()) << keys[i];
    if (individual.ok()) {
      EXPECT_EQ((*batch)[i].value(), *individual);
    } else {
      EXPECT_EQ((*batch)[i].status().code(), individual.status().code());
    }
  }
  session->Close();
}

TEST_F(PirSessionTest, BatchCountsDummiesInTraffic) {
  ASSERT_TRUE(store_.Publish("k", ToBytes("v")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  const auto before = session->traffic();
  auto batch = session->PrivateGetBatch({"k"}, /*extra_dummies=*/4);
  ASSERT_TRUE(batch.ok());
  const auto after = session->traffic();
  // 5 requests on the wire: the observer cannot tell real from dummy.
  EXPECT_EQ(after.requests - before.requests, 5u);
  session->Close();
}

TEST_F(PirSessionTest, EmptyBatchIsNoop) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto batch = session->PrivateGetBatch({}, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
  EXPECT_FALSE(session->PrivateGetBatch({}, -1).ok());
}

TEST(PirBatchCoBatching, PipelinedRequestsShareServerScans) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 10; ++i) {
    (void)store.Publish("p" + std::to_string(i), ToBytes("v"));
  }
  BatchConfig batch_config;
  batch_config.max_batch = 16;
  batch_config.max_wait = std::chrono::milliseconds(50);
  ReactorServing serving;
  ZltpPirServer& server0 =
      serving.Make<ZltpPirServer>(store, 0, ServerOptions{batch_config});
  const std::uint16_t port0 = serving.Serve(server0);
  const std::uint16_t port1 = serving.Serve(
      serving.Make<ZltpPirServer>(store, 1, ServerOptions{batch_config}));
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      ReactorServing::Connect(port0), ReactorServing::Connect(port1)));
  ASSERT_TRUE(session.ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("p" + std::to_string(i));
  auto batch = session->PrivateGetBatch(keys);
  ASSERT_TRUE(batch.ok());
  for (const auto& r : *batch) EXPECT_TRUE(r.ok());

  // The 8 pipelined requests must have shared server-side scans.
  const auto stats = server0.batch_stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_LT(stats.batches, 8u);
  EXPECT_GT(stats.average_batch_size(), 1.5);
  session->Close();
}

TEST(PirBatchCoBatching, PageLargerThanMaxBatchSpansBatches) {
  // One connection's pipelined page outgrows max_batch, so the server must
  // split it across batches and still route every answer to its request.
  PirStore store(SmallStoreConfig());
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (int i = 0; keys.size() < 7; ++i) {
    const std::string key = "span/p" + std::to_string(i);
    const std::string value = "value" + std::to_string(i);
    if (store.Publish(key, ToBytes(value)).ok()) {
      keys.push_back(key);
      values.push_back(value);
    }
  }
  BatchConfig batch_config;
  batch_config.max_batch = 2;
  batch_config.max_wait = std::chrono::milliseconds(20);
  ReactorServing serving;
  ZltpPirServer& server0 =
      serving.Make<ZltpPirServer>(store, 0, ServerOptions{batch_config});
  const std::uint16_t port0 = serving.Serve(server0);
  const std::uint16_t port1 = serving.Serve(
      serving.Make<ZltpPirServer>(store, 1, ServerOptions{batch_config}));
  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      ReactorServing::Connect(port0), ReactorServing::Connect(port1)));
  ASSERT_TRUE(session.ok());

  auto batch = session->PrivateGetBatch(keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE((*batch)[i].ok()) << keys[i];
    EXPECT_EQ(ToString((*batch)[i].value()), values[i]) << keys[i];
  }
  // 7 requests, at most 2 per batch.
  EXPECT_GE(server0.batch_stats().batches, 4u);
  session->Close();
}

TEST(PirThreaded, RoundTripThroughWorkerPool) {
  // The server's DPF expansion + scan run on its thread pool; results must
  // be identical to the serial server for any pool size.
  PirStore store(SmallStoreConfig());
  std::vector<std::string> published;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "pooled/p" + std::to_string(i);
    if (store.Publish(key, ToBytes("value" + std::to_string(i))).ok()) {
      published.push_back(key);
    }
  }
  ASSERT_GT(published.size(), 8u);

  for (const int threads : {2, 3}) {
    ServerOptions options;
    options.num_threads = threads;
    ReactorServing serving;
    const std::uint16_t port0 =
        serving.Serve(serving.Make<ZltpPirServer>(store, 0, options));
    const std::uint16_t port1 =
        serving.Serve(serving.Make<ZltpPirServer>(store, 1, options));
    auto session = PirSession::Establish(EstablishOptions::FromTransports(
        ReactorServing::Connect(port0), ReactorServing::Connect(port1)));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (const auto& key : published) {
      auto value = session->PrivateGet(key);
      ASSERT_TRUE(value.ok())
          << key << " threads=" << threads << ": "
          << value.status().ToString();
      EXPECT_EQ(ToString(*value),
                "value" + key.substr(std::string("pooled/p").size()));
    }
    session->Close();
  }
}

// ----------------------------------------------------- sessions over TCP

TEST(TcpSessionTest, PirOverRealSockets) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("tcp-page", ToBytes("over the wire")).ok());
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<ZltpPirServer>(store, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<ZltpPirServer>(store, 1));

  auto t0 = net::TcpConnect("127.0.0.1", port0);
  auto t1 = net::TcpConnect("127.0.0.1", port1);
  ASSERT_TRUE(t0.ok() && t1.ok());

  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(std::move(*t0), std::move(*t1)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(ToString(session->PrivateGet("tcp-page").value()),
            "over the wire");
  session->Close();
}

}  // namespace
}  // namespace lw::zltp
