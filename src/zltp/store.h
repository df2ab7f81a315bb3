// PirStore: the content store behind a ZLTP PIR-mode server.
//
// Combines the keyword registry (key → DPF domain index, collision
// detection), record packing (fingerprint + padding to the universe's fixed
// blob size), and one blob database over the whole domain. The paper's
// §5.2 sharded deployment is not modelled here: it is the networked
// FrontEndServer/ShardDataServer pair (zltp/frontend.h).
//
// Thread-safe: queries take a shared lock, publishes an exclusive one — a
// CDN publishes new pages while serving private-GETs.
#pragma once

#include <shared_mutex>
#include <string_view>
#include <vector>

#include "dpf/dpf.h"
#include "pir/blob_db.h"
#include "pir/keyword.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw {
class ThreadPool;
}

namespace lw::zltp {

struct PirStoreConfig {
  int domain_bits = 22;          // paper §5.1 default
  std::size_t record_size = 4096;  // paper's 4 KiB data blobs
  Bytes keyword_seed;            // 16 bytes; random if empty
};

class PirStore {
 public:
  explicit PirStore(PirStoreConfig config);

  const PirStoreConfig& config() const { return config_; }
  const pir::KeywordMapper& mapper() const { return registry_.mapper(); }
  int domain_bits() const { return config_.domain_bits; }
  std::size_t record_size() const { return config_.record_size; }

  // Publishes (or re-publishes) a key's payload. COLLISION if a different
  // key occupies the same domain index; INVALID_ARGUMENT if the payload
  // does not fit the fixed record size.
  Status Publish(std::string_view key, ByteSpan payload);

  Status Unpublish(std::string_view key);

  bool Contains(std::string_view key) const;
  std::size_t record_count() const;
  std::size_t stored_bytes() const;

  // Answers one PIR query (full scan). The DPF key's domain must match.
  // A non-null pool parallelizes the data scan across its workers
  // (identical answers either way); the DPF expansion runs on the caller.
  Result<Bytes> AnswerQuery(const dpf::DpfKey& key,
                            ThreadPool* pool = nullptr) const;

  // Answers a batch with one fused pass over the data: every key's DPF is
  // expanded first without the store lock, then the records are scanned
  // once under the shared lock.
  Result<std::vector<Bytes>> AnswerBatch(const std::vector<dpf::DpfKey>& keys,
                                         ThreadPool* pool = nullptr) const;

  // Non-private direct read (publisher tooling / tests).
  Result<Bytes> DirectLookup(std::string_view key) const;

  // Every published key (used by universe peering). Not cheap; exclusive of
  // serving hot paths.
  std::vector<std::string> Keys() const;

 private:
  PirStoreConfig config_;
  mutable std::shared_mutex mu_;
  pir::KeywordRegistry registry_;
  pir::BlobDatabase db_;
};

}  // namespace lw::zltp
