// A lightweb content universe (paper §3.1).
//
// A universe is the unit of privacy and of cost: one logical ZLTP deployment
// serving every page in it. Code blobs (one per domain, large, rarely
// changing) and data blobs (many, small) live in two separate PIR stores —
// the paper's two ZLTP sessions ("one for fetching the large code blobs and
// one for fetching the small data blobs", §3.2) — so that code-blob fetches
// don't pay the data universe's scan and vice versa.
//
// The universe also manages domain ownership ("the CDN is responsible for
// managing ownership of path prefixes") and pushes publisher updates to
// peered universes on other CDNs (§3.5).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"
#include "zltp/store.h"

namespace lw::lightweb {

struct UniverseConfig {
  std::string name = "default";

  // Code universe: one blob per domain. The paper suggests ~1 MiB code
  // blobs; tests and examples shrink this.
  int code_domain_bits = 16;
  std::size_t code_blob_size = 64 * 1024;

  // Data universe: paper §5.1 defaults (2^22 domain, 4 KiB blobs).
  int data_domain_bits = 22;
  std::size_t data_blob_size = 4096;

  // Fixed number of data-blob fetches per page view (paper §3.2: "the
  // number of data blobs fetched per page view must be fixed").
  int fetches_per_page = 5;

  // Universe master seed; code/data keyword seeds are derived. Random if
  // empty.
  Bytes master_seed;
};

class Universe {
 public:
  explicit Universe(UniverseConfig config);

  const UniverseConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  int fetches_per_page() const { return config_.fetches_per_page; }

  const zltp::PirStore& code_store() const { return code_store_; }
  const zltp::PirStore& data_store() const { return data_store_; }

  // ------------------------------------------------------------ ownership

  // Claims a domain for a publisher. COLLISION if another publisher holds
  // it; idempotent for the same publisher.
  Status ClaimDomain(std::string_view domain, std::string_view publisher_id);

  Result<std::string> OwnerOf(std::string_view domain) const;

  // ------------------------------------------------------------ publishing

  // Pushes a domain's (single) code blob. Validates: ownership, domain
  // syntax, that the blob parses as LightScript, and that no route exceeds
  // the universe's fetch budget.
  Status PushCode(std::string_view publisher_id, std::string_view domain,
                  std::string_view code_blob_text);

  // Pushes one data blob at a full path ("domain/..."). Validates ownership
  // of the path's domain. Payload may be plaintext JSON or access-controlled
  // ciphertext — the CDN cannot tell and does not care.
  Status PushData(std::string_view publisher_id, std::string_view path,
                  ByteSpan payload);

  Status RemoveData(std::string_view publisher_id, std::string_view path);

  // ------------------------------------------------------------- peering

  // Registers a peer universe: future pushes here are forwarded to it
  // (one hop; forwarded pushes do not cascade — §3.5). The peer must
  // outlive this universe.
  void AddPeer(Universe& peer);

  std::size_t total_pages() const { return data_store_.record_count(); }
  std::size_t total_domains() const;

  // Snapshot of the domain→publisher assignments (for persistence/peering).
  std::map<std::string, std::string> DomainOwners() const;

 private:
  Status PushCodeInternal(std::string_view publisher_id,
                          std::string_view domain,
                          std::string_view code_blob_text, bool propagate);
  Status PushDataInternal(std::string_view publisher_id,
                          std::string_view path, ByteSpan payload,
                          bool propagate);
  Status CheckOwnership(std::string_view domain,
                        std::string_view publisher_id);

  UniverseConfig config_;
  zltp::PirStore code_store_;
  zltp::PirStore data_store_;

  mutable std::mutex mu_;  // ownership + peers
  std::map<std::string, std::string, std::less<>> domain_owner_;
  std::vector<Universe*> peers_;
};

}  // namespace lw::lightweb
