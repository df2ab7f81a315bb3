// sharded: the §5.2 deployment in its smallest-message case.
//
// Two FrontEndServers, each over 4 ShardDataServers, all served on one
// epoll reactor over loopback TCP, with the front-ends' shard links dialed
// through the same reactor (ShardFanout::ConnectOnReactor). The universe
// is a 2^10 domain of 1 KiB records, loaded by keyword as in
// examples/sharded_deployment.cpp. Two PirSessions (4 connections), one
// per load-generator thread, issue back-to-back 8-key PrivateGetBatches;
// an op is one batch. Each GET costs 20 frames and only microseconds of
// DPF and scan work, so framing, reactor wakeups and fan-out correlation
// dominate. No shard round-trip time is emulated.
#include <string>
#include <unordered_set>

#include "deploy.h"
#include "harness.h"
#include "net/tcp.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "trace.h"
#include "zltp/frontend.h"

namespace lwbench {
namespace {

constexpr int kDomainBits = 10;
constexpr int kTopBits = 2;  // 4 shard data servers per front-end
constexpr std::size_t kRecordSize = 1024;
constexpr std::size_t kRecords = 512;
constexpr std::size_t kPayloadSize = 1000;
constexpr std::size_t kKeysPerBatch = 8;
constexpr int kClients = 2;

std::string KeyName(std::uint32_t id) { return "doc/" + std::to_string(id); }

class ShardedClient final : public Client {
 public:
  ShardedClient(std::uint64_t seed, const std::vector<std::uint32_t>& ids,
                lw::zltp::PirSession& session)
      : Client({&session}), seed_(seed), ids_(ids), session_(session) {}

  bool RunOp(lw::Rng& rng) override {
    std::vector<std::uint32_t> picked(kKeysPerBatch);
    std::vector<std::string> keys(kKeysPerBatch);
    for (std::size_t i = 0; i < kKeysPerBatch; ++i) {
      picked[i] = ids_[rng.UniformInt(ids_.size())];
      keys[i] = KeyName(picked[i]);
    }
    lw::Result<std::vector<lw::Result<lw::Bytes>>> got =
        lw::UnavailableError("unset");
    {
      CallScope call("zltp.batch", 1);
      got = session_.PrivateGetBatch(keys);
    }
    if (!got.ok() || got->size() != kKeysPerBatch) return false;
    for (std::size_t i = 0; i < kKeysPerBatch; ++i) {
      const auto& value = (*got)[i];
      if (!value.ok() ||
          *value != DerivedBytes(seed_, picked[i], 1, kPayloadSize)) {
        return false;
      }
    }
    return true;
  }

 private:
  std::uint64_t seed_;
  const std::vector<std::uint32_t>& ids_;
  lw::zltp::PirSession& session_;
};

class ShardedDeployment final : public Deployment {
 public:
  static std::unique_ptr<Deployment> Create(const Args& args, bool traced) {
    std::unique_ptr<ShardedDeployment> d(new ShardedDeployment());
    lw::zltp::ShardTopology topology;
    topology.domain_bits = kDomainBits;
    topology.top_bits = kTopBits;
    topology.record_size = kRecordSize;
    const lw::Bytes seed = DerivedBytes(args.seed, 0x736861, 0, 16);
    const lw::pir::KeywordMapper mapper(seed, kDomainBits);

    d->reactor_ = std::make_unique<lw::net::Reactor>();
    std::vector<std::vector<lw::zltp::ShardFanout::ShardAddr>> addrs(2);
    for (int replica = 0; replica < 2; ++replica) {
      for (std::size_t s = 0; s < topology.shard_count(); ++s) {
        d->shards_.push_back(
            std::make_unique<lw::zltp::ShardDataServer>(topology, s));
        auto listener = lw::net::TcpListener::Listen(0);
        if (!listener.ok()) {
          return SetupFailed("sharded", "listen", listener.status());
        }
        addrs[replica].push_back({"127.0.0.1", listener->bound_port()});
        const lw::Status st = d->shards_.back()->ServeOnReactor(
            *d->reactor_, std::move(*listener));
        if (!st.ok()) return SetupFailed("sharded", "serve shard", st);
      }
    }
    // Both replicas hold the same records; keys whose index collides with
    // an earlier key are skipped.
    std::unordered_set<std::uint64_t> used;
    for (std::uint32_t id = 0; d->ids_.size() < kRecords; ++id) {
      const std::string key = KeyName(id);
      const std::uint64_t index = mapper.IndexOf(key);
      if (!used.insert(index).second) continue;
      auto record = lw::pir::PackRecord(
          mapper.Fingerprint(key), DerivedBytes(args.seed, id, 1, kPayloadSize),
          kRecordSize);
      if (!record.ok()) return SetupFailed("sharded", "pack", record.status());
      const std::size_t shard = index & (topology.shard_count() - 1);
      for (int replica = 0; replica < 2; ++replica) {
        const lw::Status st =
            d->shards_[replica * topology.shard_count() + shard]->Load(
                index, *record);
        if (!st.ok()) return SetupFailed("sharded", "load", st);
      }
      d->ids_.push_back(id);
    }
    if (const lw::Status st = d->reactor_->Start(); !st.ok()) {
      return SetupFailed("sharded", "reactor", st);
    }
    std::uint16_t ports[2] = {0, 0};
    for (int replica = 0; replica < 2; ++replica) {
      auto fanout = lw::zltp::ShardFanout::ConnectOnReactor(
          topology, *d->reactor_, addrs[replica]);
      if (!fanout.ok()) {
        return SetupFailed("sharded", "fan-out", fanout.status());
      }
      d->frontends_.push_back(std::make_unique<lw::zltp::FrontEndServer>(
          static_cast<std::uint8_t>(replica), seed, std::move(*fanout)));
      auto listener = lw::net::TcpListener::Listen(0);
      if (!listener.ok()) {
        return SetupFailed("sharded", "listen", listener.status());
      }
      ports[replica] = listener->bound_port();
      const lw::Status st = d->frontends_.back()->ServeOnReactor(
          *d->reactor_, std::move(*listener));
      if (!st.ok()) return SetupFailed("sharded", "serve front-end", st);
    }
    for (int c = 0; c < kClients; ++c) {
      auto session = DialPirSession(ports[0], ports[1], traced);
      if (!session.ok()) {
        return SetupFailed("sharded", "dial", session.status());
      }
      d->sessions_.push_back(std::move(*session));
      d->clients_.push_back(std::make_unique<ShardedClient>(
          args.seed, d->ids_, *d->sessions_.back()));
    }
    return d;
  }

  ~ShardedDeployment() override {
    clients_.clear();
    sessions_.clear();
    // Serving teardown order: stop the reactor, then destroy the servers
    // (the fan-outs fail what is pending), then the reactor object.
    if (reactor_ != nullptr) reactor_->Stop();
    frontends_.clear();
    shards_.clear();
    reactor_.reset();
  }

  std::vector<Client*> clients() override {
    std::vector<Client*> out;
    for (auto& c : clients_) out.push_back(c.get());
    return out;
  }

 private:
  ShardedDeployment() = default;

  std::unique_ptr<lw::net::Reactor> reactor_;
  std::vector<std::unique_ptr<lw::zltp::ShardDataServer>> shards_;
  std::vector<std::unique_ptr<lw::zltp::FrontEndServer>> frontends_;
  std::vector<std::uint32_t> ids_;
  std::vector<std::unique_ptr<lw::zltp::PirSession>> sessions_;
  std::vector<std::unique_ptr<ShardedClient>> clients_;
};

}  // namespace

WorkloadSpec ShardedWorkload() {
  return {"sharded", "batch8", kRecordSize, &ShardedDeployment::Create};
}

}  // namespace lwbench
