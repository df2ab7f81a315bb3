// Failure injection: transports that die mid-protocol, servers vanishing
// between requests, and shard outages. The client stack must surface clean
// UNAVAILABLE/PROTOCOL errors — never hang, crash, or fabricate data.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "lightweb/browser.h"
#include "lightweb/channel.h"
#include "lightweb/publisher.h"
#include "lightweb/universe.h"
#include "net/faulty.h"
#include "net/transport.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "reactor_serving.h"
#include "util/clock.h"
#include "zltp/client.h"
#include "zltp/frontend.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw {
namespace {

using testutil::ReactorServing;

// All establishes in this file go through EstablishOptions (the redesigned
// API); resilience knobs default to NoRetry so injected faults surface.
Result<zltp::PirSession> EstablishPair(std::unique_ptr<net::Transport> t0,
                                       std::unique_ptr<net::Transport> t1) {
  return zltp::PirSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(t0), std::move(t1)));
}

zltp::PirStoreConfig StoreConfig() {
  zltp::PirStoreConfig c;
  c.domain_bits = 12;
  c.record_size = 128;
  c.keyword_seed = Bytes(16, 0x5a);
  return c;
}

TEST(FailureInjection, SessionDiesDuringEstablish) {
  zltp::PirStore store(StoreConfig());
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 1));

  // Connection 0 dies before the hello completes.
  auto session = EstablishPair(
      std::make_unique<net::DyingTransport>(ReactorServing::Connect(port0), 1),
      ReactorServing::Connect(port1));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kUnavailable);
}

TEST(FailureInjection, ServerDiesBetweenRequests) {
  zltp::PirStore store(StoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 1));

  // Hello (2 ops) + first GET (2 ops) survive; the link dies afterwards.
  auto session = EstablishPair(
      std::make_unique<net::DyingTransport>(ReactorServing::Connect(port0), 4),
      ReactorServing::Connect(port1));
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->PrivateGet("k").ok());

  auto second = session->PrivateGet("k");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  // Subsequent calls keep failing cleanly rather than crashing.
  EXPECT_FALSE(session->PrivateGet("k").ok());
  session->Close();
}

TEST(FailureInjection, BatchFailsCleanlyWhenServerDies) {
  zltp::PirStore store(StoreConfig());
  for (int i = 0; i < 5; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 1));

  auto session = EstablishPair(
      ReactorServing::Connect(port0),
      std::make_unique<net::DyingTransport>(ReactorServing::Connect(port1), 6));
  ASSERT_TRUE(session.ok());
  auto batch = session->PrivateGetBatch({"k0", "k1", "k2", "k3", "k4"});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
}

TEST(FailureInjection, CorruptedServerAnswerDetected) {
  // A tamperer flips bits in the record share: reconstruction yields a
  // record whose fingerprint cannot match — reported as COLLISION or a
  // protocol error, never silently-wrong data.
  zltp::PirStore store(StoreConfig());
  ASSERT_TRUE(store.Publish("page", ToBytes("truth")).ok());
  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 1));

  auto session = EstablishPair(
      ReactorServing::Connect(port0),
      std::make_unique<net::CorruptingTransport>(
          ReactorServing::Connect(port1)));
  // The hello itself may already fail to parse; if it succeeds, the GET
  // must not return fabricated content.
  if (!session.ok()) {
    SUCCEED();
    return;
  }
  auto value = session->PrivateGet("page");
  if (value.ok()) {
    // Astronomically unlikely: corruption preserved the fingerprint AND
    // the payload. Treat as failure.
    FAIL() << "corrupted answer authenticated: " << ToString(*value);
  }
}

TEST(FailureInjection, ShardOutageFailsFanout) {
  zltp::ShardTopology topology;
  topology.domain_bits = 10;
  topology.top_bits = 1;  // 2 shards
  topology.record_size = 64;

  ReactorServing serving;
  const std::uint16_t port0 =
      serving.Serve(serving.Make<zltp::ShardDataServer>(topology, 0));
  const std::uint16_t port1 =
      serving.Serve(serving.Make<zltp::ShardDataServer>(topology, 1));

  // Shard 1 is down: every connection the relay hands it dies on its
  // first operation past the relay's own eager receive.
  net::FaultRelay::Options outage;
  outage.decorate = [](std::unique_ptr<net::Transport> far, int) {
    return std::unique_ptr<net::Transport>(
        std::make_unique<net::DyingTransport>(std::move(far), 1));
  };
  auto relay = net::FaultRelay::Start("127.0.0.1", port1, std::move(outage));
  ASSERT_TRUE(relay.ok()) << relay.status().ToString();
  auto fanout = zltp::ShardFanout::ConnectOnReactor(
      topology, serving.reactor(),
      {{"127.0.0.1", port0}, {"127.0.0.1", (*relay)->port()}});
  ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

  const pir::QueryKeys q = pir::MakeIndexQuery(3, 10);
  auto answer = fanout->Answer(q.key0);
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
}

TEST(FailureInjection, BrowserSurfacesChannelFailure) {
  using namespace lightweb;
  UniverseConfig config;
  config.name = "failing";
  config.code_domain_bits = 10;
  config.code_blob_size = 4096;
  config.data_domain_bits = 12;
  config.data_blob_size = 256;
  config.fetches_per_page = 2;
  Universe universe(config);
  Publisher pub("p");
  SiteBuilder site("a.example");
  site.AddRoute("/*rest", {"a.example/data.json"}, "{{data0.x}}");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());
  json::Object blob;
  blob["x"] = "y";
  ASSERT_TRUE(pub.PublishData(universe, "a.example/data.json",
                              json::Value(blob)).ok());

  ReactorServing serving;
  auto serve = [&](const zltp::PirStore& store, std::uint8_t role) {
    return ReactorServing::Connect(
        serving.Serve(serving.Make<zltp::ZltpPirServer>(store, role)));
  };
  auto code_session = EstablishPair(serve(universe.code_store(), 0),
                                    serve(universe.code_store(), 1));
  // The data channel dies after the hello.
  auto data_session = EstablishPair(
      std::make_unique<net::DyingTransport>(serve(universe.data_store(), 0),
                                            2),
      serve(universe.data_store(), 1));
  ASSERT_TRUE(code_session.ok());
  ASSERT_TRUE(data_session.ok());

  BrowserConfig bconfig;
  bconfig.fetches_per_page = universe.fetches_per_page();
  Browser browser(
      std::make_unique<ZltpChannel>(
          std::make_unique<zltp::PirSession>(std::move(*code_session))),
      std::make_unique<ZltpChannel>(
          std::make_unique<zltp::PirSession>(std::move(*data_session))),
      bconfig);

  auto page = browser.Visit("a.example/anything");
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
}

TEST(FailureInjection, PageLoadSurvivesMidLoadServerCrash) {
  // The acceptance scenario from docs/ROBUSTNESS.md: one of the data
  // servers drops the connection in the middle of a page load; the session
  // redials, re-runs the hello, re-issues the batch with fresh DPF shares,
  // and the browser sees a page load that simply succeeded.
  using namespace lightweb;
  UniverseConfig config;
  config.name = "blippy";
  config.code_domain_bits = 10;
  config.code_blob_size = 4096;
  config.data_domain_bits = 12;
  config.data_blob_size = 256;
  config.fetches_per_page = 2;
  Universe universe(config);
  Publisher pub("p");
  SiteBuilder site("a.example");
  site.AddRoute("/*rest", {"a.example/data.json"}, "{{data0.x}}");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());
  json::Object blob;
  blob["x"] = "y";
  ASSERT_TRUE(pub.PublishData(universe, "a.example/data.json",
                              json::Value(blob)).ok());

  ReactorServing serving;
  auto dial = [&](const zltp::PirStore& store, std::uint8_t role) {
    return ReactorServing::Dialer(
        serving.Serve(serving.Make<zltp::ZltpPirServer>(store, role)));
  };

  FakeClock fake;
  auto connect = [&](const zltp::PirStore& store,
                     bool first_connection_dies) {
    zltp::EstablishOptions options;
    options.factory0 = dial(store, 0);
    options.factory1 = dial(store, 1);
    if (first_connection_dies) {
      net::TransportFactory inner = options.factory0;
      auto dials = std::make_shared<std::atomic<int>>(0);
      options.factory0 =
          [inner, dials]() -> Result<std::unique_ptr<net::Transport>> {
        LW_ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> t, inner());
        if (dials->fetch_add(1) == 0) {
          // Hello (2 ops) plus one mid-batch send survive, then crash.
          return std::unique_ptr<net::Transport>(
          std::make_unique<net::DyingTransport>(std::move(t), 3));
        }
        return t;
      };
    }
    options.retry.max_attempts = 3;
    options.retry.jitter = 0.0;
    options.clock = &fake;
    return zltp::PirSession::Establish(std::move(options));
  };

  auto code_session = connect(universe.code_store(), false);
  auto data_session =
      connect(universe.data_store(), /*first_connection_dies=*/true);
  ASSERT_TRUE(code_session.ok()) << code_session.status().ToString();
  ASSERT_TRUE(data_session.ok()) << data_session.status().ToString();

  BrowserConfig bconfig;
  bconfig.fetches_per_page = universe.fetches_per_page();
  auto data_channel = std::make_unique<ZltpChannel>(
      std::make_unique<zltp::PirSession>(std::move(*data_session)));
  zltp::Session& data_ref = data_channel->session();
  Browser browser(
      std::make_unique<ZltpChannel>(
          std::make_unique<zltp::PirSession>(std::move(*code_session))),
      std::move(data_channel), bconfig);

  auto page = browser.Visit("a.example/anything");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->text.find("y"), std::string::npos);
  EXPECT_GE(data_ref.traffic().redials, 1u)
      << "the blip must have been recovered by a redial, not avoided";
  EXPECT_GE(data_ref.traffic().retries, 1u);
}

}  // namespace
}  // namespace lw
