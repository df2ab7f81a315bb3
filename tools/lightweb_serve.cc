// lightweb_serve — host a lightweb universe over TCP.
//
// Loads one or more site files (JSON: domain + LightScript code + data
// blobs), builds a universe, and serves it as four ZLTP endpoints on
// consecutive loopback ports:
//
//   base+0  code universe, logical server role 0
//   base+1  code universe, logical server role 1
//   base+2  data universe, logical server role 0
//   base+3  data universe, logical server role 1
//
// (In production roles 0 and 1 live in separate trust domains; one process
// hosting both is a demo convenience.)
//
// Usage:
//   lightweb_serve <base_port> [--snapshot state.json]
//                  [--metrics-port=N] [--metrics-dump=PATH]
//                  [--max-batch=N] [--max-wait-ms=N] [--queue-limit=N]
//                  [--deadline-ms=N] [--threads=N]
//                  [--scan-kernel=auto|scalar|avx2|avx512] [--no-hugepages]
//                  <site.json> ...
//
// With --snapshot, an existing snapshot file is loaded before any site
// files, and the final universe (snapshot + newly loaded sites) is written
// back — simple persistence across restarts. Any other argument starting
// with "--" that is not listed here exits 2 with a usage line.
//
// One epoll loop multiplexes all four endpoints; complete frames hand off
// to each endpoint's batch scheduler, whose single worker answers each
// batch with one fused scan (docs/ARCHITECTURE.md).
//
// Batching / data-plane knobs (docs/PERFORMANCE.md):
//   --max-batch=N     queries fused per scan pass (default 16)
//   --max-wait-ms=N   co-rider window after a batch's first query
//   --queue-limit=N   shed RESOURCE_EXHAUSTED beyond N queued queries
//   --deadline-ms=N   per-request deadline budget driving early batch close
//   --threads=N       per-request compute threads (0 = hardware)
//   --scan-kernel=K   pin the XOR kernel tier (default runtime-detected)
//   --no-hugepages    skip madvise(MADV_HUGEPAGE) on record arenas
//
// Observability (see docs/OBSERVABILITY.md):
//   --metrics-port=N   serve GET /metrics (Prometheus text) and
//                      GET /metrics.json on 127.0.0.1:N (0 = ephemeral)
//   --metrics-dump=P   atomically rewrite P with the JSON snapshot every
//                      10 seconds (for scrape-less setups)
//
// Site file format:
//   {
//     "domain": "planet.example",
//     "publisher": "planet-media",
//     "code": { "site": "...", "routes": [ ... LightScript ... ] },
//     "data": { "planet.example/data/x.json": { ...blob json... }, ... }
//   }
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "json/json.h"
#include "lightweb/snapshot.h"
#include "lightweb/universe.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "obs/exporter.h"
#include "pir/xor_kernel.h"
#include "util/alloc.h"
#include "util/file.h"
#include "util/log.h"
#include "zltp/server.h"

namespace {

using namespace lw;

// The served universe's parameters. Kept small enough that a laptop serves
// requests interactively; see bench_server_compute for paper-scale costs.
lightweb::UniverseConfig ServeConfig() {
  lightweb::UniverseConfig config;
  config.name = "served";
  config.code_domain_bits = 12;
  config.code_blob_size = 16 * 1024;
  config.data_domain_bits = 16;
  config.data_blob_size = 2048;
  config.fetches_per_page = 5;
  return config;
}

bool LoadSite(lightweb::Universe& universe, const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return false;
  }
  auto doc = json::Parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return false;
  }
  const std::string domain = doc->GetString("domain");
  const std::string publisher = doc->GetString("publisher", "publisher");
  const json::Value* code = doc->Find("code");
  if (domain.empty() || code == nullptr) {
    std::fprintf(stderr, "%s: need \"domain\" and \"code\"\n", path.c_str());
    return false;
  }
  Status s = universe.ClaimDomain(domain, publisher);
  if (s.ok()) s = universe.PushCode(publisher, domain, json::Write(*code));
  if (!s.ok()) {
    std::fprintf(stderr, "%s: push code: %s\n", path.c_str(),
                 s.ToString().c_str());
    return false;
  }
  std::size_t blobs = 0;
  if (const json::Value* data = doc->Find("data");
      data != nullptr && data->is_object()) {
    for (const auto& [blob_path, blob] : data->AsObject()) {
      const Status ps = universe.PushData(publisher, blob_path,
                                          ToBytes(json::Write(blob)));
      if (!ps.ok()) {
        std::fprintf(stderr, "%s: push %s: %s\n", path.c_str(),
                     blob_path.c_str(), ps.ToString().c_str());
        return false;
      }
      ++blobs;
    }
  }
  std::printf("loaded %s: domain %s, %zu data blobs\n", path.c_str(),
              domain.c_str(), blobs);
  return true;
}

// A numeric flag value: a whole decimal number >= 0, or -1 for anything
// else (empty, a sign, trailing characters, overflow), which every caller
// rejects. std::atoi would read "4ms" as 4 and "abc" as 0.
int ParseCount(const char* text) {
  const char* end = text + std::strlen(text);
  int v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  return ec == std::errc() && ptr == end && v >= 0 ? v : -1;
}

constexpr const char kUsage[] =
    "usage: lightweb_serve <base_port> [--snapshot state.json]\n"
    "         [--metrics-port=N] [--metrics-dump=PATH]\n"
    "         [--max-batch=N] [--max-wait-ms=N] [--queue-limit=N]\n"
    "         [--deadline-ms=N] [--threads=N]\n"
    "         [--scan-kernel=auto|scalar|avx2|avx512] [--no-hugepages]\n"
    "         <site.json> [more-sites.json ...]\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const int base_port = ParseCount(argv[1]);
  if (base_port <= 0 || base_port > 65531) {
    std::fprintf(stderr, "bad base port\n");
    return 2;
  }

  std::string snapshot_path;
  std::string metrics_dump_path;
  int metrics_port = -1;  // -1 = disabled; 0 = ephemeral port
  zltp::ServerOptions server_options;
  std::vector<std::string> site_files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--snapshot needs a path\n");
        return 2;
      }
      snapshot_path = argv[++i];
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      metrics_port = ParseCount(arg.c_str() + 15);
      if (metrics_port < 0 || metrics_port > 65535) {
        std::fprintf(stderr, "bad --metrics-port\n");
        return 2;
      }
    } else if (arg.rfind("--metrics-dump=", 0) == 0) {
      metrics_dump_path = arg.substr(15);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      const int v = ParseCount(arg.c_str() + 12);
      if (v < 1) {
        std::fprintf(stderr, "bad --max-batch (need >= 1)\n");
        return 2;
      }
      server_options.batch_config.max_batch = static_cast<std::size_t>(v);
    } else if (arg.rfind("--max-wait-ms=", 0) == 0) {
      const int v = ParseCount(arg.c_str() + 14);
      if (v < 0) {
        std::fprintf(stderr, "bad --max-wait-ms\n");
        return 2;
      }
      server_options.batch_config.max_wait = std::chrono::milliseconds(v);
    } else if (arg.rfind("--queue-limit=", 0) == 0) {
      const int v = ParseCount(arg.c_str() + 14);
      if (v < 0) {
        std::fprintf(stderr, "bad --queue-limit\n");
        return 2;
      }
      server_options.batch_config.queue_limit = static_cast<std::size_t>(v);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      const int v = ParseCount(arg.c_str() + 14);
      if (v < 0) {
        std::fprintf(stderr, "bad --deadline-ms\n");
        return 2;
      }
      server_options.batch_config.deadline_budget =
          std::chrono::milliseconds(v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const int v = ParseCount(arg.c_str() + 10);
      if (v < 0) {
        std::fprintf(stderr, "bad --threads (need >= 0)\n");
        return 2;
      }
      server_options.num_threads = v;
    } else if (arg.rfind("--scan-kernel=", 0) == 0) {
      if (!pir::SetXorTierByName(arg.c_str() + 14)) {
        std::fprintf(stderr,
                     "bad --scan-kernel (unknown or unsupported on this "
                     "CPU; want auto|scalar|avx2|avx512)\n");
        return 2;
      }
    } else if (arg == "--no-hugepages") {
      SetHugepagesEnabled(false);
    } else if (arg.rfind("--", 0) == 0) {
      // A typo must not be taken for a site path and fail later as an
      // unreadable file.
      std::fprintf(stderr, "unknown option %s\n%s", arg.c_str(), kUsage);
      return 2;
    } else {
      site_files.emplace_back(arg);
    }
  }
  std::printf("scan kernel: %s%s\n", pir::XorTierName(pir::ActiveXorTier()),
              HugepagesEnabled() ? ", hugepages advised" : ", hugepages off");

  lightweb::Universe universe(ServeConfig());
  if (!snapshot_path.empty()) {
    const Status s =
        lightweb::LoadUniverseSnapshotFromFile(universe, snapshot_path);
    if (s.ok()) {
      std::printf("restored snapshot %s (%zu pages)\n",
                  snapshot_path.c_str(), universe.total_pages());
    } else if (s.code() != StatusCode::kUnavailable) {
      // Missing file is fine on first run; anything else is a real error.
      std::fprintf(stderr, "snapshot load: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& site : site_files) {
    if (!LoadSite(universe, site)) return 1;
  }
  if (!snapshot_path.empty()) {
    const Status s =
        lightweb::SaveUniverseSnapshotToFile(universe, snapshot_path);
    if (!s.ok()) {
      std::fprintf(stderr, "snapshot save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("saved snapshot to %s\n", snapshot_path.c_str());
  }
  std::printf("universe ready: %zu pages, %zu domains\n\n",
              universe.total_pages(), universe.total_domains());

  std::unique_ptr<obs::MetricsHttpServer> metrics_server;
  if (metrics_port >= 0) {
    auto started =
        obs::MetricsHttpServer::Start(static_cast<std::uint16_t>(metrics_port));
    if (!started.ok()) {
      std::fprintf(stderr, "metrics server: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(*started);
    std::printf("metrics: http://127.0.0.1:%u/metrics (and /metrics.json)\n",
                metrics_server->port());
  }
  if (!metrics_dump_path.empty()) {
    // Detached dumper: the process serves until killed, so there is no
    // clean shutdown to join against.
    std::thread([path = metrics_dump_path] {
      for (;;) {
        const Status s = obs::WriteSnapshotJson(path);
        if (!s.ok()) {
          std::fprintf(stderr, "metrics dump: %s\n", s.ToString().c_str());
        }
        std::this_thread::sleep_for(std::chrono::seconds(10));
      }
    }).detach();
    std::printf("metrics: dumping JSON snapshot to %s every 10s\n",
                metrics_dump_path.c_str());
  }

  // Declared before the servers: teardown is Stop() (Join returns after
  // it), then the servers, then the reactor (zltp/server.h).
  net::Reactor reactor;
  zltp::ZltpPirServer code0(universe.code_store(), 0, server_options);
  zltp::ZltpPirServer code1(universe.code_store(), 1, server_options);
  zltp::ZltpPirServer data0(universe.data_store(), 0, server_options);
  zltp::ZltpPirServer data1(universe.data_store(), 1, server_options);

  struct Endpoint {
    zltp::ZltpPirServer* server;
    const char* label;
  };
  const Endpoint endpoints[4] = {{&code0, "code role 0"},
                                 {&code1, "code role 1"},
                                 {&data0, "data role 0"},
                                 {&data1, "data role 1"}};
  // One epoll loop owns all four listening sockets; each complete frame
  // hands off to the endpoint server's batch scheduler, whose admission
  // queue — not the kernel thread scheduler — decides what runs next.
  for (int i = 0; i < 4; ++i) {
    auto listener =
        net::TcpListener::Listen(static_cast<std::uint16_t>(base_port + i));
    if (!listener.ok()) {
      std::fprintf(stderr, "listen %d: %s\n", base_port + i,
                   listener.status().ToString().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u (%s)\n", listener->bound_port(),
                endpoints[i].label);
    const Status s =
        endpoints[i].server->ServeOnReactor(reactor, std::move(*listener));
    if (!s.ok()) {
      std::fprintf(stderr, "serve %d: %s\n", base_port + i,
                   s.ToString().c_str());
      return 1;
    }
  }
  if (const Status s = reactor.Start(); !s.ok()) {
    std::fprintf(stderr, "reactor: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nbrowse with: lightweb_browse 127.0.0.1 %d <domain/path>\n",
              base_port);
  reactor.Join();
  return 0;
}
