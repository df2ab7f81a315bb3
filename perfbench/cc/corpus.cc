#include "corpus.h"

#include <cstdio>

#include "harness.h"

namespace lwbench {
namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t BlobHash(std::uint64_t seed, int domain, int blob,
                       std::uint64_t version) {
  return Mix(seed ^ Mix(static_cast<std::uint64_t>(domain) * 1000003 +
                        static_cast<std::uint64_t>(blob)) ^
             Mix(version + 0x51ed27));
}

// Route /kN captures N blob segments and renders every field of each.
std::string CodeBlob(int domain) {
  std::string routes;
  for (int k = 1; k <= kFetchesPerPage; ++k) {
    std::string pattern = "/k" + std::to_string(k);
    std::string fetch, render;
    for (int i = 0; i < k; ++i) {
      const std::string cap(1, static_cast<char>('a' + i));
      pattern += "/:" + cap;
      fetch += std::string(i ? "," : "") + "\"{domain}/b/{" + cap + "}\"";
      const std::string d = "data" + std::to_string(i);
      render += std::string(i ? "|" : "") + "{{" + d + ".t}}:{{" + d +
                ".v}}:{{" + d + ".pad}}";
    }
    routes += std::string(k > 1 ? "," : "") + "{\"pattern\":\"" + pattern +
              "\",\"fetch\":[" + fetch + "],\"render\":\"" + render + "\"}";
  }
  return "{\"site\":\"" + SiteName(domain) + "\",\"style\":\"" +
         CodeStyle(domain) + "\",\"routes\":[" + routes + "]}";
}

std::string Segment(int blob, int variant) {
  return variant == 0 ? std::to_string(blob)
                      : std::to_string(blob) + "x" + std::to_string(variant);
}

std::string DomainName(int domain, int variant) {
  char buf[48];
  if (variant == 0) {
    std::snprintf(buf, sizeof(buf), "site%02d.example", domain);
  } else {
    std::snprintf(buf, sizeof(buf), "site%02dv%d.example", domain, variant);
  }
  return buf;
}

}  // namespace

std::string PublisherId(int domain) { return "pub" + std::to_string(domain); }

std::string SiteName(int domain) { return "Site " + std::to_string(domain); }

// The style string pads the code blob to a realistic size, so a code-cache
// miss pays a real parse.
std::string CodeStyle(int domain) {
  std::string style;
  for (int i = 0; style.size() < 8000; ++i) {
    style += "rule" + std::to_string(i) + "{margin:" +
             std::to_string((i + domain) % 17) + "px} ";
  }
  return style;
}

std::string BlobSegment(const Corpus& corpus, int domain, int blob) {
  const std::string& path = corpus.paths[domain][blob];
  return path.substr(path.rfind('/') + 1);
}

std::string BlobToken(std::uint64_t seed, int domain, int blob,
                      std::uint64_t version) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    BlobHash(seed, domain, blob, version)));
  return buf;
}

std::string BlobPad(std::uint64_t seed, int domain, int blob,
                    std::uint64_t version) {
  const std::uint64_t h = BlobHash(seed, domain, blob, version);
  // Payload sizes average ~0.9 KiB, like the paper's C4 pages.
  const std::size_t pad_len = 128 + (h >> 20) % 1600;
  std::string pad(pad_len, 'a');
  for (std::size_t i = 0; i < pad_len; ++i) {
    pad[i] = static_cast<char>('a' + (i * 7 + h) % 26);
  }
  return pad;
}

std::string BlobJson(std::uint64_t seed, int domain, int blob,
                     std::uint64_t version) {
  return "{\"t\":\"" + BlobToken(seed, domain, blob, version) +
         "\",\"v\":" + std::to_string(version) + ",\"pad\":\"" +
         BlobPad(seed, domain, blob, version) + "\"}";
}

lw::Result<Corpus> BuildCorpus(std::uint64_t seed) {
  lw::lightweb::UniverseConfig config;
  config.name = "perfbench";
  config.code_domain_bits = 12;
  config.code_blob_size = 16 * 1024;
  config.data_domain_bits = 18;
  config.data_blob_size = 4096;
  config.fetches_per_page = kFetchesPerPage;
  config.master_seed = DerivedBytes(seed, 0x756e6976, 0, 16);

  Corpus corpus;
  corpus.seed = seed;
  corpus.universe = std::make_unique<lw::lightweb::Universe>(config);
  corpus.paths.assign(kDomains, std::vector<std::string>(kBlobsPerDomain));
  lw::lightweb::Universe& u = *corpus.universe;
  for (int d = 0; d < kDomains; ++d) {
    const std::string publisher = PublisherId(d);
    std::string domain;
    for (int variant = 0; domain.empty(); ++variant) {
      const std::string name = DomainName(d, variant);
      LW_RETURN_IF_ERROR(u.ClaimDomain(name, publisher));
      const lw::Status s = u.PushCode(publisher, name, CodeBlob(d));
      if (s.ok()) {
        domain = name;
      } else if (s.code() != lw::StatusCode::kCollision) {
        return s;
      }
    }
    corpus.domains.push_back(domain);
    for (int j = 0; j < kBlobsPerDomain; ++j) {
      const std::string json = BlobJson(seed, d, j, 0);
      for (int variant = 0;; ++variant) {
        const std::string path = domain + "/b/" + Segment(j, variant);
        const lw::Status s = u.PushData(
            publisher, path,
            lw::ByteSpan(reinterpret_cast<const std::uint8_t*>(json.data()),
                         json.size()));
        if (s.ok()) {
          corpus.paths[d][j] = path;
          break;
        }
        if (s.code() != lw::StatusCode::kCollision) return s;
      }
    }
  }
  return corpus;
}

}  // namespace lwbench
