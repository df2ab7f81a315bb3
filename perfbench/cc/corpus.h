// The synthetic lightweb universe the browse and publish workloads serve.
//
// 64 domains, each with one LightScript code blob whose routes /k1 .. /k5
// plan 1 to 5 real data fetches, so the dummy padding of a page varies
// from 4 to 0. Each domain owns 256 data blobs: 2^14 blobs of 4 KiB in a
// 2^18 data domain (64 MiB; E1's 1:16 ratio of records to domain). Code
// blobs are 16 KiB in a 2^12 code domain.
//
// Every blob's JSON carries a token and a pad derived from (seed, domain,
// blob, version), and each route renders every field of its blobs, so the
// benchmark can recompute the exact page text it expects and a corrupted
// payload byte shows up in the page (or fails its JSON parse).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lightweb/universe.h"
#include "util/status.h"

namespace lwbench {

inline constexpr int kDomains = 64;
inline constexpr int kBlobsPerDomain = 256;
inline constexpr int kFetchesPerPage = 5;

struct Corpus {
  std::uint64_t seed = 0;
  std::unique_ptr<lw::lightweb::Universe> universe;
  // domains[d]: domain d's name. A name whose code blob collides with an
  // earlier domain's in the small code domain takes the next variant.
  std::vector<std::string> domains;
  // paths[d][j]: the published path of domain d's blob j. A blob whose
  // first name collides in the keyword domain is published under the
  // next free variant, so every blob is reachable.
  std::vector<std::vector<std::string>> paths;
};

lw::Result<Corpus> BuildCorpus(std::uint64_t seed);

std::string PublisherId(int domain);
// What a domain's code blob announces; the browser reports both per page.
std::string SiteName(int domain);
std::string CodeStyle(int domain);
// The path segment naming blob j of a domain (what /kN routes capture).
std::string BlobSegment(const Corpus& corpus, int domain, int blob);
std::string BlobToken(std::uint64_t seed, int domain, int blob,
                      std::uint64_t version);
std::string BlobPad(std::uint64_t seed, int domain, int blob,
                    std::uint64_t version);
// The blob's JSON: {"t": token, "v": version, "pad": pad}. A route renders
// it as "token:version:pad".
std::string BlobJson(std::uint64_t seed, int domain, int blob,
                     std::uint64_t version);

}  // namespace lwbench
