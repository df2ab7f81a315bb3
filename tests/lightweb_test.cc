// Lightweb system tests: universes, publishers, the browser end-to-end over
// in-process PIR (and real ZLTP sessions), access control, dynamic content,
// the fixed-fetch traffic invariant, caching, and peering.
#include <gtest/gtest.h>

#include <set>

#include "lightweb/access.h"
#include "lightweb/browser.h"
#include "lightweb/cdn.h"
#include "lightweb/channel.h"
#include "lightweb/paced.h"
#include "lightweb/publisher.h"
#include "lightweb/universe.h"
#include "net/transport.h"
#include "reactor_serving.h"
#include "util/rand.h"
#include "zltp/client.h"
#include "zltp/server.h"

namespace lw::lightweb {
namespace {

UniverseConfig SmallUniverse(std::string name = "test") {
  UniverseConfig c;
  c.name = std::move(name);
  c.code_domain_bits = 10;
  c.code_blob_size = 4096;
  c.data_domain_bits = 14;
  c.data_blob_size = 512;
  c.fetches_per_page = 3;
  c.master_seed = Bytes(16, 0x11);
  return c;
}

// Builds a small news site and publishes it.
Publisher MakeNewsSite(Universe& universe) {
  Publisher pub("planet-media");
  SiteBuilder site("planet.com");
  site.SetSiteName("The Daily Planet")
      .AddRoute("/world/:region", {"planet.com/data/world/{region}.json"},
                "# {{site}} — {{region}}\n"
                "{{#each data0.headlines}}- [{{.title}}]({{.link}})\n{{/each}}")
      .AddRoute("/story/:id", {"planet.com/data/story/{id}.json"},
                "# {{data0.title}}\n\n{{data0.body}}\n\n[home](planet.com/)")
      .AddRoute("/*rest", {"planet.com/data/home.json"},
                "# {{site}}\n{{#each data0.sections}}"
                "- [{{.}}](planet.com/world/{{.}})\n{{/each}}");
  EXPECT_TRUE(pub.PublishSite(universe, site).ok());

  json::Object home;
  home["sections"] = json::Array{"africa", "europe"};
  EXPECT_TRUE(
      pub.PublishData(universe, "planet.com/data/home.json", json::Value(home))
          .ok());

  json::Object africa;
  africa["headlines"] = json::Array{[] {
    json::Object h;
    h["title"] = "Lake Victoria rises";
    h["link"] = "planet.com/story/lv1";
    return json::Value(h);
  }()};
  EXPECT_TRUE(pub.PublishData(universe, "planet.com/data/world/africa.json",
                              json::Value(africa))
                  .ok());

  json::Object story;
  story["title"] = "Lake Victoria rises";
  story["body"] = "Water levels reached a new high this week.";
  EXPECT_TRUE(pub.PublishData(universe, "planet.com/data/story/lv1.json",
                              json::Value(story))
                  .ok());
  return pub;
}

Browser MakeBrowser(const Universe& universe) {
  BrowserConfig config;
  config.fetches_per_page = universe.fetches_per_page();
  return Browser(
      std::make_unique<InProcessPirChannel>(universe.code_store()),
      std::make_unique<InProcessPirChannel>(universe.data_store()), config);
}

// ------------------------------------------------------------- universe

TEST(Universe, DomainOwnership) {
  Universe u(SmallUniverse());
  ASSERT_TRUE(u.ClaimDomain("planet.com", "pub-a").ok());
  EXPECT_TRUE(u.ClaimDomain("planet.com", "pub-a").ok());  // idempotent
  EXPECT_EQ(u.ClaimDomain("planet.com", "pub-b").code(),
            StatusCode::kCollision);
  EXPECT_EQ(u.OwnerOf("planet.com").value(), "pub-a");
  EXPECT_FALSE(u.OwnerOf("other.com").ok());
  EXPECT_FALSE(u.ClaimDomain("BAD_DOMAIN", "pub-a").ok());
}

TEST(Universe, PushRequiresOwnership) {
  Universe u(SmallUniverse());
  ASSERT_TRUE(u.ClaimDomain("planet.com", "pub-a").ok());
  EXPECT_EQ(u.PushData("pub-b", "planet.com/x", ToBytes("{}")).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(u.PushData("pub-a", "unclaimed.com/x", ToBytes("{}")).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(u.PushData("pub-a", "planet.com/x", ToBytes("{}")).ok());
}

TEST(Universe, PushCodeValidatesProgram) {
  Universe u(SmallUniverse());
  ASSERT_TRUE(u.ClaimDomain("planet.com", "p").ok());
  EXPECT_FALSE(u.PushCode("p", "planet.com", "not json at all").ok());
  // Route exceeding the fetch budget (3) is rejected.
  SiteBuilder greedy("planet.com");
  greedy.AddRoute("/", {"planet.com/1", "planet.com/2", "planet.com/3",
                        "planet.com/4"},
                  "too many");
  EXPECT_EQ(u.PushCode("p", "planet.com", greedy.BuildCodeBlob()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Universe, RemoveData) {
  Universe u(SmallUniverse());
  ASSERT_TRUE(u.ClaimDomain("a.com", "p").ok());
  ASSERT_TRUE(u.PushData("p", "a.com/x", ToBytes("{}")).ok());
  EXPECT_EQ(u.total_pages(), 1u);
  ASSERT_TRUE(u.RemoveData("p", "a.com/x").ok());
  EXPECT_EQ(u.total_pages(), 0u);
}

// -------------------------------------------------------------- browser

TEST(BrowserTest, VisitRendersHomePage) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);

  auto page = browser.Visit("planet.com");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->site_name, "The Daily Planet");
  EXPECT_NE(page->text.find("# The Daily Planet"), std::string::npos);
  ASSERT_EQ(page->links.size(), 2u);
  EXPECT_EQ(page->links[0].target, "planet.com/world/africa");
}

TEST(BrowserTest, NavigateViaLinks) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);

  auto home = browser.Visit("planet.com");
  ASSERT_TRUE(home.ok());
  auto region = browser.Visit(home->links[0].target);
  ASSERT_TRUE(region.ok());
  EXPECT_NE(region->text.find("Lake Victoria rises"), std::string::npos);
  ASSERT_FALSE(region->links.empty());
  auto story = browser.Visit(region->links[0].target);
  ASSERT_TRUE(story.ok());
  EXPECT_NE(story->text.find("Water levels reached a new high"),
            std::string::npos);
}

TEST(BrowserTest, FixedFetchCountInvariant) {
  // THE traffic-analysis defense (paper §3.2): every page view issues
  // exactly fetches_per_page data-channel queries, no matter how many real
  // blobs the route needs (here: home=1, about-like misses, story=1).
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);
  const auto& data_channel = browser.data_channel();
  const int budget = universe.fetches_per_page();

  std::uint64_t last = data_channel.observed_queries();
  for (const char* path :
       {"planet.com", "planet.com/world/africa", "planet.com/story/lv1",
        "planet.com/world/nowhere", "planet.com/story/missing"}) {
    auto page = browser.Visit(path);
    ASSERT_TRUE(page.ok()) << path;
    const std::uint64_t now = data_channel.observed_queries();
    EXPECT_EQ(now - last, static_cast<std::uint64_t>(budget))
        << "path " << path << " broke the fixed-fetch invariant";
    EXPECT_EQ(page->real_fetches + page->dummy_fetches, budget);
    last = now;
  }
}

TEST(BrowserTest, CodeBlobCached) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);

  const auto& code_channel = browser.code_channel();
  ASSERT_TRUE(browser.Visit("planet.com").ok());
  const std::uint64_t after_first = code_channel.observed_queries();
  EXPECT_EQ(after_first, 1u);
  ASSERT_TRUE(browser.Visit("planet.com/world/africa").ok());
  ASSERT_TRUE(browser.Visit("planet.com/story/lv1").ok());
  EXPECT_EQ(code_channel.observed_queries(), after_first);  // cache hits
  EXPECT_EQ(browser.code_cache_hits(), 2u);

  browser.InvalidateCode("planet.com");
  ASSERT_TRUE(browser.Visit("planet.com").ok());
  EXPECT_EQ(code_channel.observed_queries(), after_first + 1);
}

TEST(BrowserTest, CodeCacheLruEviction) {
  UniverseConfig config = SmallUniverse();
  Universe universe(config);
  // Three one-route sites.
  for (const char* domain : {"a-site.com", "b-site.com", "c-site.com"}) {
    Publisher pub(std::string("pub-") + domain);
    SiteBuilder site(domain);
    site.AddRoute("/*rest", {}, std::string("hello from ") + domain);
    ASSERT_TRUE(pub.PublishSite(universe, site).ok());
  }
  BrowserConfig bconfig;
  bconfig.fetches_per_page = universe.fetches_per_page();
  bconfig.code_cache_capacity = 2;
  Browser browser(
      std::make_unique<InProcessPirChannel>(universe.code_store()),
      std::make_unique<InProcessPirChannel>(universe.data_store()), bconfig);

  ASSERT_TRUE(browser.Visit("a-site.com").ok());  // miss
  ASSERT_TRUE(browser.Visit("b-site.com").ok());  // miss
  ASSERT_TRUE(browser.Visit("a-site.com").ok());  // hit
  ASSERT_TRUE(browser.Visit("c-site.com").ok());  // miss, evicts b
  ASSERT_TRUE(browser.Visit("b-site.com").ok());  // miss again
  EXPECT_EQ(browser.code_cache_misses(), 4u);
  EXPECT_EQ(browser.code_cache_hits(), 1u);
}

TEST(BrowserTest, UnknownDomainFails) {
  Universe universe(SmallUniverse());
  Browser browser = MakeBrowser(universe);
  auto page = browser.Visit("ghost.com/page");
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kNotFound);
}

TEST(BrowserTest, MissingDataBlobRendersBestEffort) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);
  auto page = browser.Visit("planet.com/world/atlantis");  // no such blob
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->fetch_status.size(), 1u);
  EXPECT_EQ(page->fetch_status[0].code(), StatusCode::kNotFound);
  EXPECT_NE(page->text.find("atlantis"), std::string::npos);
}

// ------------------------------------------------------ dynamic content

TEST(BrowserTest, DynamicContentViaLocalStorage) {
  // The weather.com example from §3.3: the page uses the locally cached
  // postal code to pick the data blob — no server-side state, no leakage.
  Universe universe(SmallUniverse());
  Publisher pub("weather-co");
  SiteBuilder site("weather.com");
  site.SetSiteName("Weather Now")
      .AddRoute("/", {"weather.com/by-zip/{local.postal_code|default}.json"},
                "Weather for {{local.postal_code}}: {{data0.forecast}}");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());

  json::Object berkeley;
  berkeley["forecast"] = "fog then sun";
  ASSERT_TRUE(pub.PublishData(universe, "weather.com/by-zip/94703.json",
                              json::Value(berkeley))
                  .ok());
  json::Object nyc;
  nyc["forecast"] = "humid";
  ASSERT_TRUE(pub.PublishData(universe, "weather.com/by-zip/10001.json",
                              json::Value(nyc))
                  .ok());

  Browser browser = MakeBrowser(universe);
  browser.local_storage("weather.com").Set("postal_code", "94703");
  auto page = browser.Visit("weather.com");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->text.find("fog then sun"), std::string::npos);

  browser.local_storage("weather.com").Set("postal_code", "10001");
  page = browser.Visit("weather.com");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->text.find("humid"), std::string::npos);
}

TEST(BrowserTest, LocalStorageIsDomainSeparated) {
  Universe universe(SmallUniverse());
  Browser browser = MakeBrowser(universe);
  browser.local_storage("a-site.com").Set("secret", "for-a");
  EXPECT_FALSE(browser.local_storage("b-site.com").Get("secret").has_value());
  EXPECT_EQ(*browser.local_storage("a-site.com").Get("secret"), "for-a");
}

// ------------------------------------------------------- access control

TEST(AccessControl, SubscriberReadsPaywalledPage) {
  Universe universe(SmallUniverse());
  Publisher pub("times-co");
  SiteBuilder site("times.com");
  site.AddRoute("/premium/:id", {"times.com/data/premium/{id}.json"},
                "{{#if data0.body}}{{data0.body}}{{/if}}"
                "{{^if data0.body}}[ subscribe to read ]{{/if}}");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());

  json::Object article;
  article["body"] = "Exclusive: the truth about everything.";
  ASSERT_TRUE(pub.PublishProtectedData(
                     universe, "times.com/data/premium/42.json",
                     json::Value(article))
                  .ok());

  // Non-subscriber: fetch succeeds (CDN can't tell), decrypt fails,
  // page renders the paywall branch.
  Browser visitor = MakeBrowser(universe);
  auto page = visitor.Visit("times.com/premium/42");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->text.find("[ subscribe to read ]"), std::string::npos);
  ASSERT_EQ(page->fetch_status.size(), 1u);
  EXPECT_EQ(page->fetch_status[0].code(), StatusCode::kPermissionDenied);

  // Subscriber with the current epoch key reads the article.
  Browser subscriber = MakeBrowser(universe);
  subscriber.keyring("times.com")
      .AddEpochKey(pub.keyring().current_epoch(),
                   pub.IssueClientKey(pub.keyring().current_epoch()));
  page = subscriber.Visit("times.com/premium/42");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->text.find("Exclusive: the truth"), std::string::npos);
}

TEST(AccessControl, KeyRotationRevokesLapsedSubscribers) {
  Universe universe(SmallUniverse());
  Publisher pub("times-co");
  SiteBuilder site("times.com");
  site.AddRoute("/p/:id", {"times.com/data/p/{id}.json"}, "{{data0.body}}");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());

  const std::uint32_t old_epoch = pub.keyring().current_epoch();
  json::Object v1;
  v1["body"] = "epoch-1 content";
  ASSERT_TRUE(
      pub.PublishProtectedData(universe, "times.com/data/p/1.json",
                               json::Value(v1))
          .ok());

  Browser lapsed = MakeBrowser(universe);
  lapsed.keyring("times.com")
      .AddEpochKey(old_epoch, pub.IssueClientKey(old_epoch));
  // Can read epoch-1 content.
  auto page = lapsed.Visit("times.com/p/1");
  ASSERT_TRUE(page.ok());
  EXPECT_NE(page->text.find("epoch-1 content"), std::string::npos);

  // Publisher rotates and publishes new content; the lapsed subscriber
  // cannot read it.
  pub.keyring().RotateEpoch();
  json::Object v2;
  v2["body"] = "epoch-2 content";
  ASSERT_TRUE(
      pub.PublishProtectedData(universe, "times.com/data/p/2.json",
                               json::Value(v2))
          .ok());
  page = lapsed.Visit("times.com/p/2");
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->text.find("epoch-2 content"), std::string::npos);
  EXPECT_EQ(page->fetch_status[0].code(), StatusCode::kPermissionDenied);
}

TEST(AccessControl, CiphertextBoundToPath) {
  PublisherKeyring pub;
  const Bytes ct = pub.Encrypt("times.com/a", ToBytes("secret"));
  ClientKeyring client;
  client.AddEpochKey(pub.current_epoch(), pub.EpochKey(pub.current_epoch()));
  EXPECT_TRUE(client.Decrypt("times.com/a", ct).ok());
  // Replaying the ciphertext under a different path fails.
  EXPECT_FALSE(client.Decrypt("times.com/b", ct).ok());
}

// -------------------------------------------------------------- peering

TEST(Peering, PushPropagatesToPeerUniverse) {
  Universe akamai(SmallUniverse("akamai"));
  Universe fastly(SmallUniverse("fastly"));
  akamai.AddPeer(fastly);

  Publisher pub = MakeNewsSite(akamai);
  (void)pub;
  EXPECT_GT(fastly.total_pages(), 0u);
  EXPECT_EQ(fastly.total_pages(), akamai.total_pages());

  // A browser pointed at the PEER universe reads the same site.
  Browser browser = MakeBrowser(fastly);
  auto page = browser.Visit("planet.com/world/africa");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->text.find("Lake Victoria rises"), std::string::npos);
}

TEST(Peering, OwnershipConsistentAcrossPeers) {
  Universe a(SmallUniverse("a"));
  Universe b(SmallUniverse("b"));
  a.AddPeer(b);
  Publisher pub("owner-1");
  SiteBuilder site("site.com");
  site.AddRoute("/*rest", {}, "hi");
  ASSERT_TRUE(pub.PublishSite(a, site).ok());
  EXPECT_EQ(b.OwnerOf("site.com").value(), "owner-1");
  // A different publisher cannot hijack the domain on the peer.
  EXPECT_EQ(b.ClaimDomain("site.com", "owner-2").code(),
            StatusCode::kCollision);
}

// ------------------------------------------------------------------ CDN

TEST(CdnTest, UniverseManagement) {
  Cdn cdn("akamai");
  ASSERT_TRUE(cdn.CreateUniverse(SmallUniverse("news")).ok());
  ASSERT_TRUE(cdn.CreateUniverse(SmallUniverse("reference")).ok());
  EXPECT_FALSE(cdn.CreateUniverse(SmallUniverse("news")).ok());  // dup
  EXPECT_TRUE(cdn.GetUniverse("news").ok());
  EXPECT_FALSE(cdn.GetUniverse("ghost").ok());
  EXPECT_EQ(cdn.UniverseNames().size(), 2u);
}

TEST(CdnTest, TieredConfigsDifferInBlobSize) {
  const auto tiers = Cdn::TieredConfigs();
  ASSERT_EQ(tiers.size(), 3u);
  std::set<std::size_t> sizes;
  for (const auto& t : tiers) sizes.insert(t.data_blob_size);
  EXPECT_EQ(sizes.size(), 3u);  // all distinct
}

// ------------------------------------------------------ paced browsing

TEST(PacedBrowserTest, ConstantRateRegardlessOfActivity) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);
  // Warm the code cache so real and decoy loads look alike on the data
  // channel accounting below.
  ASSERT_TRUE(browser.Visit("planet.com").ok());
  const std::uint64_t baseline = browser.data_channel().observed_queries();

  PacedBrowser paced(browser);
  paced.Navigate("planet.com/world/africa");
  paced.Navigate("planet.com/story/lv1");

  int rendered = 0;
  for (int tick = 0; tick < 6; ++tick) {
    auto result = paced.Tick();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    rendered += result->has_value();
    // THE invariant: every tick costs exactly one page load of traffic.
    EXPECT_EQ(browser.data_channel().observed_queries() - baseline,
              static_cast<std::uint64_t>(tick + 1) *
                  static_cast<std::uint64_t>(universe.fetches_per_page()));
  }
  EXPECT_EQ(rendered, 2);
  EXPECT_EQ(paced.real_loads(), 2u);
  EXPECT_EQ(paced.decoy_loads(), 4u);
  EXPECT_EQ(paced.pending(), 0u);
}

TEST(PacedBrowserTest, QueueDrainsInOrder) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);
  Browser browser = MakeBrowser(universe);
  PacedBrowser paced(browser);
  paced.Navigate("planet.com/world/africa");
  paced.Navigate("planet.com/story/lv1");
  EXPECT_EQ(paced.pending(), 2u);

  auto first = paced.Tick();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->full_path, "planet.com/world/africa");
  auto second = paced.Tick();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->full_path, "planet.com/story/lv1");
  auto third = paced.Tick();
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->has_value());  // decoy
}

// ------------------------------------- browser over real ZLTP sessions

TEST(BrowserOverZltp, FullStackWithNetworkedSessions) {
  Universe universe(SmallUniverse());
  MakeNewsSite(universe);

  using testutil::ReactorServing;
  ReactorServing serving;
  auto connect = [&serving](const zltp::PirStore& store) {
    zltp::EstablishOptions options;
    options.transport0 = ReactorServing::Connect(
        serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 0)));
    options.transport1 = ReactorServing::Connect(
        serving.Serve(serving.Make<zltp::ZltpPirServer>(store, 1)));
    return zltp::PirSession::Establish(std::move(options));
  };
  auto code_session = connect(universe.code_store());
  auto data_session = connect(universe.data_store());
  ASSERT_TRUE(code_session.ok());
  ASSERT_TRUE(data_session.ok());

  BrowserConfig config;
  config.fetches_per_page = universe.fetches_per_page();
  Browser browser(std::make_unique<ZltpChannel>(std::make_unique<zltp::PirSession>(
                      std::move(*code_session))),
                  std::make_unique<ZltpChannel>(std::make_unique<zltp::PirSession>(
                      std::move(*data_session))),
                  config);

  auto page = browser.Visit("planet.com/world/africa");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->text.find("Lake Victoria rises"), std::string::npos);
  // Fixed-fetch invariant holds over the real protocol too.
  EXPECT_EQ(browser.data_channel().observed_queries(),
            static_cast<std::uint64_t>(universe.fetches_per_page()));
}

}  // namespace
}  // namespace lw::lightweb
