// Tests for the networked sharded deployment (paper §5.2): shard data
// servers, the front-end fan-out, and a full client session against a
// two-logical-server deployment where each logical server is a front-end
// over 2^top_bits shard servers.
#include <gtest/gtest.h>

#include "net/transport.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "reactor_serving.h"
#include "util/rand.h"
#include "zltp/client.h"
#include "zltp/frontend.h"

namespace lw::zltp {
namespace {

using testutil::ReactorServing;

ShardTopology SmallTopology() {
  ShardTopology t;
  t.domain_bits = 12;
  t.top_bits = 2;  // 4 shards
  t.record_size = 128;
  return t;
}

// A deployment: shard servers served on `serving` plus the loaded
// content, addressable by key.
struct Deployment {
  ShardTopology topology = SmallTopology();
  Bytes keyword_seed = Bytes(16, 0x77);
  ReactorServing& serving;
  std::vector<ShardDataServer*> shards;  // owned by `serving`
  std::vector<ShardFanout::ShardAddr> addrs;
  pir::KeywordMapper mapper{Bytes(16, 0x77), 12};

  explicit Deployment(ReactorServing& serving) : serving(serving) {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      shards.push_back(&serving.Make<ShardDataServer>(topology, s));
      addrs.push_back({"127.0.0.1", serving.Serve(*shards.back())});
    }
  }

  Status Publish(std::string_view key, ByteSpan payload) {
    const std::uint64_t index = mapper.IndexOf(key);
    LW_ASSIGN_OR_RETURN(
        const Bytes record,
        pir::PackRecord(mapper.Fingerprint(key), payload,
                        topology.record_size));
    const std::size_t shard =
        static_cast<std::size_t>(index & (topology.shard_count() - 1));
    return shards[shard]->Load(index, record);
  }

  // Wires a fresh fan-out: one reactor link per shard.
  ShardFanout MakeFanout() {
    auto fanout =
        ShardFanout::ConnectOnReactor(topology, serving.reactor(), addrs);
    EXPECT_TRUE(fanout.ok()) << fanout.status().ToString();
    return std::move(*fanout);
  }

  // A front-end over this deployment, served on `serving`; returns its
  // client port.
  std::uint16_t ServeFrontEnd(std::uint8_t role) {
    return serving.Serve(
        serving.Make<FrontEndServer>(role, keyword_seed, MakeFanout()));
  }
};

TEST(ShardDataServer, LoadRejectsForeignIndices) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, /*shard_index=*/1);
  const Bytes record(topology.record_size, 1);
  // Index 5 ≡ 1 (mod 4): ours. Index 6 ≡ 2: foreign.
  EXPECT_TRUE(shard.Load(5, record).ok());
  EXPECT_FALSE(shard.Load(6, record).ok());
  EXPECT_EQ(shard.record_count(), 1u);
}

TEST(ShardDataServer, AnswerRejectsWrongDepth) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, 0);
  const dpf::KeyPair pair = dpf::Generate(1, 12);
  // A sub-key with the wrong remaining depth.
  const auto bad = dpf::SplitForShards(pair.key0, 1);  // depth 11, not 10
  EXPECT_FALSE(shard.Answer(bad[0]).ok());
}

TEST(ShardFanout, MatchesUnshardedAnswer) {
  ReactorServing serving;
  Deployment deployment(serving);
  Rng rng(4);
  // Publish some records and mirror them into a reference single DB.
  pir::BlobDatabase reference(deployment.topology.domain_bits,
                              deployment.topology.record_size);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "page-" + std::to_string(i);
    const Bytes payload = ToBytes("content-" + std::to_string(i));
    if (!deployment.Publish(key, payload).ok()) continue;
    const std::uint64_t index = deployment.mapper.IndexOf(key);
    const Bytes record =
        pir::PackRecord(deployment.mapper.Fingerprint(key), payload,
                        deployment.topology.record_size)
            .value();
    ASSERT_TRUE(reference.Upsert(index, record).ok());
  }

  ShardFanout fanout = deployment.MakeFanout();
  for (int t = 0; t < 10; ++t) {
    const std::uint64_t target = rng.UniformInt(1 << 12);
    const pir::QueryKeys q = pir::MakeIndexQuery(target, 12);
    auto sharded = fanout.Answer(q.key0);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    Bytes direct(deployment.topology.record_size);
    reference.Answer(dpf::EvalFull(q.key0), direct);
    EXPECT_EQ(*sharded, direct) << "target " << target;
  }
}

TEST(ShardFanout, RejectsWrongDomain) {
  ReactorServing serving;
  Deployment deployment(serving);
  ShardFanout fanout = deployment.MakeFanout();
  const pir::QueryKeys q = pir::MakeIndexQuery(0, 10);  // wrong domain
  EXPECT_FALSE(fanout.Answer(q.key0).ok());
}

TEST(FrontEnd, FullClientSessionAgainstShardedDeployment) {
  // Two logical servers (role 0/1), each a front-end over ITS OWN set of
  // shard data servers — the complete §5.2 topology, client-side unchanged.
  ReactorServing serving;
  Deployment replica0(serving), replica1(serving);
  std::vector<std::string> published;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "article/" + std::to_string(i);
    const Bytes payload = ToBytes("text " + std::to_string(i));
    const Status s0 = replica0.Publish(key, payload);
    const Status s1 = replica1.Publish(key, payload);
    ASSERT_EQ(s0.ok(), s1.ok());
    if (s0.ok()) published.push_back(key);
  }
  ASSERT_GT(published.size(), 25u);

  const std::uint16_t port0 = replica0.ServeFrontEnd(0);
  const std::uint16_t port1 = replica1.ServeFrontEnd(1);

  auto session = PirSession::Establish(EstablishOptions::FromTransports(
      ReactorServing::Connect(port0), ReactorServing::Connect(port1)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->domain_bits(), 12);

  for (const std::string& key : published) {
    auto value = session->PrivateGet(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    EXPECT_EQ(ToString(*value),
              "text " + key.substr(std::string("article/").size()));
  }
  auto missing = session->PrivateGet("never-published");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Close();
}

TEST(FrontEnd, RejectsEnclaveOnlyClient) {
  ReactorServing serving;
  Deployment deployment(serving);
  std::unique_ptr<net::Transport> client =
      ReactorServing::Connect(deployment.ServeFrontEnd(0));
  ASSERT_NE(client, nullptr);

  ClientHello hello;
  hello.supported_modes = {Mode::kEnclave};
  ASSERT_TRUE(client->Send(Encode(hello), net::Deadline::Infinite()).ok());
  auto reply = client->Receive(net::Deadline::Infinite());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(DecodeError(*reply).ok());
}

TEST(FrontEnd, ShardsOverTcp) {
  // The shard links are real sockets, dialed through the reactor.
  ReactorServing serving;
  Deployment deployment(serving);
  ASSERT_TRUE(deployment.Publish("k", ToBytes("v")).ok());

  ShardFanout fanout = deployment.MakeFanout();
  const std::uint64_t index = deployment.mapper.IndexOf("k");
  const pir::QueryKeys q = pir::MakeIndexQuery(index, 12);
  auto a0 = fanout.Answer(q.key0);
  ASSERT_TRUE(a0.ok());
  auto a1 = fanout.Answer(q.key1);
  ASSERT_TRUE(a1.ok());
  const Bytes record = pir::CombineAnswers(*a0, *a1).value();
  auto un = pir::UnpackRecord(record);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(ToString(un->payload), "v");
}

}  // namespace
}  // namespace lw::zltp
