// publish: writes beside reads — the only workload on the store's write
// path.
//
// The browse data universe, served by two ZltpPirServers on one shared
// store as tools/lightweb_serve does. One PirSession does Zipf keyword
// GETs (closed loop). One publisher thread runs an open loop, pushing new
// versions of Zipf-chosen blobs through Universe::PushData at a seeded
// Poisson rate; publish latency is timed from each publish's due time.
// The exclusive publish lock competes with the servers' shared scan lock.
//
// Known defect this workload exposes: a single GET visits its two
// servers one after the other, so a publish that lands between the two
// scans XORs (old ^ new) of the published record into the answer with
// probability 1/2 — corrupting GETs of *unrelated* keys. The fingerprint
// check then fails the GET (COLLISION / NOT_FOUND). Every such op is
// counted as failed; none is retried or filtered.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "corpus.h"
#include "deploy.h"
#include "harness.h"
#include "trace.h"
#include "workload/workload.h"

namespace lwbench {
namespace {

constexpr double kPublishesPerSecond = 20.0;
constexpr int kBlobs = kDomains * kBlobsPerDomain;

// Version bookkeeping per blob, shared by the reader and the publisher.
struct BlobState {
  std::atomic<std::uint64_t> committed{0};  // last version PushData returned
  std::atomic<std::uint32_t> inflight{0};   // pushes of this blob under way
};

struct ReadStats {
  std::uint64_t gets = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_unrelated = 0;  // no publish of the key in flight
};

// The version a blob's JSON announces, or -1.
long long VersionOf(const std::string& json) {
  const auto at = json.find("\"v\":");
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + 4);
}

class PublishReader final : public Client {
 public:
  PublishReader(const Corpus& corpus, BlobState* state,
                lw::zltp::PirSession& session)
      : Client({&session}),
        corpus_(corpus),
        state_(state),
        session_(session),
        domain_zipf_(kDomains, 1.0),
        blob_zipf_(kBlobsPerDomain, 1.0) {}

  bool RunOp(lw::Rng& rng) override {
    const int d = static_cast<int>(domain_zipf_.Sample(rng));
    const int j = static_cast<int>(blob_zipf_.Sample(rng));
    BlobState& b = state_[d * kBlobsPerDomain + j];
    const std::uint64_t floor = b.committed.load(std::memory_order_acquire);
    const bool busy_before = b.inflight.load(std::memory_order_acquire) > 0;
    lw::Result<lw::Bytes> value = lw::UnavailableError("unset");
    {
      CallScope call("zltp.get", 2);
      value = session_.PrivateGet(corpus_.paths[d][j]);
    }
    const bool busy = busy_before ||
                      b.inflight.load(std::memory_order_acquire) > 0 ||
                      b.committed.load(std::memory_order_acquire) != floor;
    bool ok = false;
    if (value.ok()) {
      const std::string json = lw::ToString(*value);
      const long long v = VersionOf(json);
      ok = v >= 0 && static_cast<std::uint64_t>(v) >= floor &&
           json == BlobJson(corpus_.seed, d, j, static_cast<std::uint64_t>(v));
    }
    stats_.gets += 1;
    if (!ok) {
      stats_.failed += 1;
      if (!busy) stats_.failed_unrelated += 1;
    }
    return ok;
  }

  ReadStats TakeStats() { return std::exchange(stats_, ReadStats{}); }

 private:
  const Corpus& corpus_;
  BlobState* state_;
  lw::zltp::PirSession& session_;
  lw::workload::ZipfSampler domain_zipf_;
  lw::workload::ZipfSampler blob_zipf_;
  ReadStats stats_;  // touched only by the reader thread between phases
};

class PublishDeployment final : public Deployment {
 public:
  static std::unique_ptr<Deployment> Create(const Args& args, bool traced) {
    auto corpus = BuildCorpus(args.seed);
    if (!corpus.ok()) return SetupFailed("publish", "corpus", corpus.status());
    std::unique_ptr<PublishDeployment> d(new PublishDeployment());
    d->seed_ = args.seed;
    d->corpus_ = std::move(*corpus);
    d->state_ = std::make_unique<BlobState[]>(kBlobs);
    auto serving = PirServing::Start({&d->corpus_.universe->data_store()});
    if (!serving.ok()) return SetupFailed("publish", "serve", serving.status());
    d->serving_ = std::move(*serving);
    auto session =
        DialPirSession(d->serving_->port(0, 0), d->serving_->port(0, 1), traced);
    if (!session.ok()) return SetupFailed("publish", "dial", session.status());
    d->session_ = std::move(*session);
    d->reader_ = std::make_unique<PublishReader>(d->corpus_, d->state_.get(),
                                                 *d->session_);
    return d;
  }

  ~PublishDeployment() override { StopPhase(); }

  std::vector<Client*> clients() override { return {reader_.get()}; }

  void StartPhase() override {
    stop_.store(false);
    publish_ms_.clear();
    lag_ms_.clear();
    publish_failures_ = 0;
    reader_->TakeStats();
    publisher_ = std::thread([this, stream = 100 + phases_++] {
      PublishLoop(stream);
    });
  }

  void StopPhase() override {
    if (!publisher_.joinable()) return;
    stop_.store(true);
    publisher_.join();
  }

  void AddPhaseMetrics(Report& r, bool traced) override {
    const ReadStats reads = reader_->TakeStats();
    if (!traced) {
      const auto e = MetricKind::kEndToEnd;
      r.Add("publish_ms_p50", Quantile(publish_ms_, 0.50), "ms",
            publish_ms_.size(), e);
      r.Add("publish_ms_p99", Quantile(publish_ms_, 0.99), "ms",
            publish_ms_.size(), e);
      r.Add("publish_failures", static_cast<double>(publish_failures_),
            "count", publish_ms_.size(), MetricKind::kInfo);
      r.Add("torn_unrelated_gets", static_cast<double>(reads.failed_unrelated),
            "count", reads.gets, MetricKind::kInfo);
      return;
    }
    const auto l = MetricKind::kPerLayer;
    double lag_sum = 0;
    for (double v : lag_ms_) lag_sum += v;
    r.Add("zltp.store.publish_lag_ms",
          lag_ms_.empty() ? 0 : lag_sum / static_cast<double>(lag_ms_.size()),
          "ms", lag_ms_.size(), l);
    r.Add("zltp.store.torn_fail_share",
          reads.gets == 0 ? 0
                          : static_cast<double>(reads.failed_unrelated) /
                                static_cast<double>(reads.gets),
          "share", reads.gets, l);
  }

 private:
  PublishDeployment() = default;

  // Open loop: publish k is due at the k-th arrival of a seeded Poisson
  // process, whether or not earlier publishes have finished.
  void PublishLoop(std::uint64_t stream) {
    lw::Rng rng = StreamRng(seed_, stream);
    const lw::workload::ZipfSampler domain_zipf(kDomains, 1.0);
    const lw::workload::ZipfSampler blob_zipf(kBlobsPerDomain, 1.0);
    std::uint64_t due = NowNs();
    while (!stop_.load()) {
      const double gap_s =
          -std::log(1.0 - rng.UniformDouble()) / kPublishesPerSecond;
      due += static_cast<std::uint64_t>(gap_s * 1e9);
      const int d = static_cast<int>(domain_zipf.Sample(rng));
      const int j = static_cast<int>(blob_zipf.Sample(rng));
      while (NowNs() < due) {
        if (stop_.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const std::uint64_t start = NowNs();
      BlobState& b = state_[d * kBlobsPerDomain + j];
      const std::uint64_t version = b.committed.load() + 1;
      b.inflight.fetch_add(1, std::memory_order_acq_rel);
      const std::string json = BlobJson(seed_, d, j, version);
      const lw::Status s = corpus_.universe->PushData(
          PublisherId(d), corpus_.paths[d][j],
          lw::ByteSpan(reinterpret_cast<const std::uint8_t*>(json.data()),
                       json.size()));
      if (s.ok()) b.committed.store(version, std::memory_order_release);
      b.inflight.fetch_sub(1, std::memory_order_acq_rel);
      const std::uint64_t end = NowNs();
      if (!s.ok()) ++publish_failures_;
      publish_ms_.push_back(static_cast<double>(end - due) / 1e6);
      lag_ms_.push_back(static_cast<double>(start - due) / 1e6);
    }
  }

  std::uint64_t seed_ = 0;
  Corpus corpus_;
  std::unique_ptr<BlobState[]> state_;
  std::unique_ptr<PirServing> serving_;
  std::unique_ptr<lw::zltp::PirSession> session_;
  std::unique_ptr<PublishReader> reader_;

  // Publisher thread state; read by the main thread only after join.
  std::atomic<bool> stop_{false};
  std::uint64_t phases_ = 0;
  std::vector<double> publish_ms_;
  std::vector<double> lag_ms_;
  std::uint64_t publish_failures_ = 0;
  std::thread publisher_;  // last: joined before the state above goes
};

}  // namespace

WorkloadSpec PublishWorkload() {
  return {"publish", "get", 4096, &PublishDeployment::Create};
}

}  // namespace lwbench
