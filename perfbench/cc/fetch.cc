// fetch_1g: the paper's 1 GiB shard (§5.1) with batching bypassed.
//
// A PirStore with a 2^20 domain holding 2^18 published 4 KiB records
// (1 GiB), served by two reactor-served ZltpPirServers. One PirSession (2
// connections) does keyword GETs of uniformly chosen published keys, one
// at a time, so every GET rides a batch of 1 and pays a full 1 GiB scan
// plus one 2^20 DPF expansion at each server — E1's per-request cost at
// d = 20, measured end to end.
#include <string>

#include "deploy.h"
#include "harness.h"
#include "trace.h"

namespace lwbench {
namespace {

constexpr int kDomainBits = 20;
constexpr std::size_t kRecordSize = 4096;
constexpr std::size_t kRecords = std::size_t{1} << 18;
constexpr std::size_t kPayloadSize = 4000;

std::string KeyName(std::uint32_t id) { return "obj/" + std::to_string(id); }

class FetchClient final : public Client {
 public:
  FetchClient(std::uint64_t seed, const std::vector<std::uint32_t>& ids,
              lw::zltp::PirSession& session)
      : Client({&session}), seed_(seed), ids_(ids), session_(session) {}

  bool RunOp(lw::Rng& rng) override {
    const std::uint32_t id = ids_[rng.UniformInt(ids_.size())];
    lw::Result<lw::Bytes> value = lw::UnavailableError("unset");
    {
      CallScope call("zltp.get", 2);
      value = session_.PrivateGet(KeyName(id));
    }
    return value.ok() && *value == DerivedBytes(seed_, id, 0, kPayloadSize);
  }

 private:
  std::uint64_t seed_;
  const std::vector<std::uint32_t>& ids_;
  lw::zltp::PirSession& session_;
};

class FetchDeployment final : public Deployment {
 public:
  static std::unique_ptr<Deployment> Create(const Args& args, bool traced) {
    std::unique_ptr<FetchDeployment> d(new FetchDeployment());
    lw::zltp::PirStoreConfig config;
    config.domain_bits = kDomainBits;
    config.record_size = kRecordSize;
    config.keyword_seed = DerivedBytes(args.seed, 0x6b6579, 0, 16);
    d->store_ = std::make_unique<lw::zltp::PirStore>(config);
    d->ids_.reserve(kRecords);
    // Keys whose index collides with an earlier key are skipped, so the
    // published set is 2^18 distinct keys chosen by the seed.
    for (std::uint32_t id = 0; d->ids_.size() < kRecords; ++id) {
      const lw::Bytes payload = DerivedBytes(args.seed, id, 0, kPayloadSize);
      const lw::Status s = d->store_->Publish(KeyName(id), payload);
      if (s.ok()) {
        d->ids_.push_back(id);
      } else if (s.code() != lw::StatusCode::kCollision) {
        return SetupFailed("fetch_1g", "publish", s);
      }
    }
    auto serving = PirServing::Start({d->store_.get()});
    if (!serving.ok()) {
      return SetupFailed("fetch_1g", "serve", serving.status());
    }
    d->serving_ = std::move(*serving);
    auto session =
        DialPirSession(d->serving_->port(0, 0), d->serving_->port(0, 1), traced);
    if (!session.ok()) return SetupFailed("fetch_1g", "dial", session.status());
    d->session_ = std::move(*session);
    d->client_ =
        std::make_unique<FetchClient>(args.seed, d->ids_, *d->session_);
    return d;
  }

  std::vector<Client*> clients() override { return {client_.get()}; }

 private:
  FetchDeployment() = default;

  std::unique_ptr<lw::zltp::PirStore> store_;
  std::vector<std::uint32_t> ids_;
  std::unique_ptr<PirServing> serving_;
  std::unique_ptr<lw::zltp::PirSession> session_;
  std::unique_ptr<FetchClient> client_;
};

}  // namespace

WorkloadSpec FetchWorkload() {
  return {"fetch_1g", "get", kRecordSize, &FetchDeployment::Create};
}

}  // namespace lwbench
