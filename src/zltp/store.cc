#include "zltp/store.h"

#include <chrono>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pir/packing.h"
#include "util/check.h"
#include "util/rand.h"

namespace lw::zltp {
namespace {

PirStoreConfig Normalize(PirStoreConfig config) {
  if (config.keyword_seed.empty()) {
    config.keyword_seed = SecureRandom(16);
  }
  return config;
}

}  // namespace

PirStore::PirStore(PirStoreConfig config)
    : config_(Normalize(std::move(config))),
      registry_(config_.keyword_seed, config_.domain_bits),
      db_(config_.domain_bits, config_.record_size) {
  LW_CHECK_MSG(config_.record_size > pir::kRecordHeaderSize,
               "record_size too small for packing header");
}

Status PirStore::Publish(std::string_view key, ByteSpan payload) {
  std::unique_lock lock(mu_);
  LW_ASSIGN_OR_RETURN(const std::uint64_t index, registry_.Register(key));
  auto packed = pir::PackRecord(registry_.mapper().Fingerprint(key), payload,
                                config_.record_size);
  if (!packed.ok()) {
    // Roll back the registration if the payload cannot be packed — unless
    // the key was already registered with earlier content.
    if (!db_.Contains(index)) (void)registry_.Unregister(key);
    return packed.status();
  }
  const bool existed = db_.Contains(index);
  const Status s = db_.Upsert(index, *packed);
  if (s.ok() && !existed) obs::M().store_records.Add(1);
  return s;
}

Status PirStore::Unpublish(std::string_view key) {
  std::unique_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  const std::uint64_t index = registry_.mapper().IndexOf(key);
  LW_RETURN_IF_ERROR(registry_.Unregister(key));
  const Status s = db_.Remove(index);
  if (s.ok()) obs::M().store_records.Add(-1);
  return s;
}

bool PirStore::Contains(std::string_view key) const {
  std::shared_lock lock(mu_);
  return registry_.IsRegistered(key);
}

std::size_t PirStore::record_count() const {
  std::shared_lock lock(mu_);
  return db_.record_count();
}

std::size_t PirStore::stored_bytes() const {
  std::shared_lock lock(mu_);
  return db_.stored_bytes();
}

Result<Bytes> PirStore::AnswerQuery(const dpf::DpfKey& key,
                                    ThreadPool* pool) const {
  if (key.domain_bits != config_.domain_bits) {
    return ProtocolError("DPF domain does not match universe domain");
  }
  std::shared_lock lock(mu_);
  const auto t0 = obs::TraceNow();
  const dpf::BitVector bits = dpf::EvalFull(key);
  const std::uint64_t expand_ns = obs::ElapsedNs(t0);
  obs::M().dpf_expand_ns.Observe(expand_ns);
  obs::AddExpandNs(expand_ns);
  Bytes out(config_.record_size, 0);
  db_.Answer(bits, out, pool);
  return out;
}

Result<std::vector<Bytes>> PirStore::AnswerBatch(
    const std::vector<dpf::DpfKey>& keys, ThreadPool* pool) const {
  for (const dpf::DpfKey& k : keys) {
    if (k.domain_bits != config_.domain_bits) {
      return ProtocolError("DPF domain does not match universe domain");
    }
  }
  // Expansion reads only the keys and the immutable domain geometry, so it
  // runs before the shared lock is taken; publishes wait only for the scan.
  const auto t0 = obs::TraceNow();
  std::vector<dpf::BitVector> bits(keys.size());
  for (std::size_t q = 0; q < keys.size(); ++q) {
    bits[q] = dpf::EvalFull(keys[q]);
  }
  const std::uint64_t expand_ns = obs::ElapsedNs(t0);
  obs::M().dpf_expand_ns.Observe(expand_ns);
  obs::AddExpandNs(expand_ns);

  std::shared_lock lock(mu_);
  std::vector<Bytes> out;
  db_.AnswerBatch(bits, out, pool);
  return out;
}

Result<Bytes> PirStore::DirectLookup(std::string_view key) const {
  std::shared_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  LW_ASSIGN_OR_RETURN(Bytes record, db_.Get(registry_.mapper().IndexOf(key)));
  LW_ASSIGN_OR_RETURN(pir::UnpackedRecord un, pir::UnpackRecord(record));
  return un.payload;
}

std::vector<std::string> PirStore::Keys() const {
  std::shared_lock lock(mu_);
  return registry_.AllKeys();
}

}  // namespace lw::zltp
