// browse: the operation a user waits for — a page load.
//
// One lightweb::Browser with production defaults (5 fetches per page, 8
// cached code blobs) over two ZltpChannels, one per universe (4 TCP
// connections), visits pages chosen by Zipf popularity with no think
// time. Every layer on the user's path is active, and each page is one
// batch of 5 co-riders at each data server.
#include <string>

#include "corpus.h"
#include "deploy.h"
#include "harness.h"
#include "lightweb/browser.h"
#include "lightweb/channel.h"
#include "trace.h"
#include "workload/workload.h"

namespace lwbench {
namespace {

class BrowseClient final : public Client {
 public:
  BrowseClient(const Corpus& corpus, lw::lightweb::Browser& browser,
               std::vector<const lw::zltp::Session*> sessions)
      : Client(std::move(sessions)),
        corpus_(corpus),
        browser_(browser),
        domain_zipf_(kDomains, 1.0),
        blob_zipf_(kBlobsPerDomain, 1.0) {
    for (int d = 0; d < kDomains; ++d) styles_.push_back(CodeStyle(d));
  }

  bool RunOp(lw::Rng& rng) override {
    const int d = static_cast<int>(domain_zipf_.Sample(rng));
    const int k = 1 + static_cast<int>(rng.UniformInt(kFetchesPerPage));
    std::string path = corpus_.domains[d] + "/k" + std::to_string(k);
    std::string expected;
    for (int i = 0; i < k; ++i) {
      const int j = static_cast<int>(blob_zipf_.Sample(rng));
      path += "/" + BlobSegment(corpus_, d, j);
      expected += (i ? "|" : "") + BlobToken(corpus_.seed, d, j, 0) + ":0:" +
                  BlobPad(corpus_.seed, d, j, 0);
    }
    auto page = browser_.Visit(path);
    if (!page.ok()) return false;
    if (page->site_name != SiteName(d) || page->style != styles_[d]) {
      return false;
    }
    if (page->real_fetches != k || page->dummy_fetches != kFetchesPerPage - k) {
      return false;
    }
    for (const lw::Status& s : page->fetch_status) {
      if (!s.ok()) return false;
    }
    return page->text == expected;
  }

 private:
  const Corpus& corpus_;
  lw::lightweb::Browser& browser_;
  lw::workload::ZipfSampler domain_zipf_;
  lw::workload::ZipfSampler blob_zipf_;
  std::vector<std::string> styles_;  // CodeStyle(d), precomputed
};

class BrowseDeployment final : public Deployment {
 public:
  static std::unique_ptr<Deployment> Create(const Args& args, bool traced) {
    auto corpus = BuildCorpus(args.seed);
    if (!corpus.ok()) return SetupFailed("browse", "corpus", corpus.status());
    std::unique_ptr<BrowseDeployment> d(new BrowseDeployment());
    d->corpus_ = std::move(*corpus);
    const auto& u = *d->corpus_.universe;
    auto serving = PirServing::Start({&u.code_store(), &u.data_store()});
    if (!serving.ok()) return SetupFailed("browse", "serve", serving.status());
    d->serving_ = std::move(*serving);
    std::unique_ptr<lw::lightweb::BlobChannel> channels[2];
    std::vector<const lw::zltp::Session*> sessions;
    for (std::size_t store = 0; store < 2; ++store) {
      auto session = DialPirSession(d->serving_->port(store, 0),
                                    d->serving_->port(store, 1), traced);
      if (!session.ok()) return SetupFailed("browse", "dial", session.status());
      sessions.push_back(session->get());
      channels[store] =
          std::make_unique<lw::lightweb::ZltpChannel>(std::move(*session));
      if (traced) {
        channels[store] =
            std::make_unique<TracingChannel>(std::move(channels[store]));
      }
    }
    lw::lightweb::BrowserConfig config;  // production defaults
    d->browser_ = std::make_unique<lw::lightweb::Browser>(
        std::move(channels[0]), std::move(channels[1]), config);
    d->client_ = std::make_unique<BrowseClient>(d->corpus_, *d->browser_,
                                                std::move(sessions));
    return d;
  }

  std::vector<Client*> clients() override { return {client_.get()}; }
  std::uint64_t visits() const override {
    return browser_->code_cache_hits() + browser_->code_cache_misses();
  }
  std::uint64_t code_misses() const override {
    return browser_->code_cache_misses();
  }

 private:
  BrowseDeployment() = default;

  // Declaration order is teardown order in reverse: the browser (and its
  // sessions) go first, then the servers, then the universe they serve.
  Corpus corpus_;
  std::unique_ptr<PirServing> serving_;
  std::unique_ptr<lw::lightweb::Browser> browser_;
  std::unique_ptr<BrowseClient> client_;
};

}  // namespace

WorkloadSpec BrowseWorkload() {
  return {"browse", "page", 4096, &BrowseDeployment::Create};
}

}  // namespace lwbench
