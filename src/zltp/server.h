// ZLTP servers.
//
// ZltpPirServer serves one logical half of the two-server PIR mode: it owns
// no data itself but answers queries against a PirStore (the CDN runs two
// such logical servers on disjoint trust domains, each with a replica of the
// universe). Queries funnel through a BatchScheduler so concurrent clients
// share data scans (paper §5.1 batching).
//
// ZltpEnclaveServer fronts a simulated hardware enclave (paper §2.2's second
// mode): the host merely relays opaque encrypted requests into the enclave.
#pragma once

#include <memory>
#include <mutex>

#include "net/reactor.h"
#include "oram/enclave.h"
#include "util/task_queue.h"
#include "util/thread_pool.h"
#include "zltp/batch.h"
#include "zltp/messages.h"
#include "zltp/store.h"

namespace lw::zltp {

struct ServerOptions {
  BatchConfig batch_config;
  // Threads for per-request compute (DPF expansion + data scan, paper
  // §5.1's multi-core server): 0 selects hardware_concurrency(); 1 runs
  // strictly serial with no pool threads at all.
  int num_threads = 0;
};

class ZltpPirServer {
 public:
  // `role` is 0 or 1 — which of the two non-colluding servers this is.
  ZltpPirServer(const PirStore& store, std::uint8_t role,
                ServerOptions options = {});
  ~ZltpPirServer();

  ZltpPirServer(const ZltpPirServer&) = delete;
  ZltpPirServer& operator=(const ZltpPirServer&) = delete;

  // Event-driven serving: registers `listener` on `reactor` and answers
  // every connection it accepts without a thread per connection — frames
  // decode on the loop, ride the batcher via SubmitAsync, and the scan
  // worker's callback queues the reply (docs/ARCHITECTURE.md). Teardown
  // order: reactor.Stop() first (no more callbacks into this server), then
  // destroy the server, then the reactor object. The same order covers
  // reactors that also carry outbound links (a FrontEndServer's
  // ShardFanout::ConnectOnReactor connections): Stop() fires on_close for
  // every outbound conn, after which the fan-out fails its pending ops and
  // its Shutdown's Close(id) calls are stale-id no-ops.
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener);

  BatchScheduler::Stats batch_stats() const { return batcher_.stats(); }

 private:
  const PirStore& store_;
  std::uint8_t role_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  BatchScheduler batcher_;            // after pool_: it scans on the pool
};

class ZltpEnclaveServer {
 public:
  explicit ZltpEnclaveServer(oram::KvEnclave& enclave);

  ZltpEnclaveServer(const ZltpEnclaveServer&) = delete;
  ZltpEnclaveServer& operator=(const ZltpEnclaveServer&) = delete;

  // Event-driven serving (same teardown order as ZltpPirServer). The
  // enclave computes serially behind enclave_mu_, so decoded requests hop
  // to a single dispatcher worker instead of blocking the loop.
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener);

 private:
  oram::KvEnclave& enclave_;
  std::mutex enclave_mu_;  // the enclave processes one request at a time
  // One dispatcher worker: the enclave is serialized by enclave_mu_ anyway,
  // and one worker preserves per-connection reply order. Declared last so
  // its destructor joins before the rest of the server goes away.
  TaskQueue dispatch_{1};
};

}  // namespace lw::zltp
