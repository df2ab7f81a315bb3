// Benchmark-side tracing for the traced run (--trace 1).
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer, never inside src/:
//
//  * TracingTransport wraps each client TCP transport (handed to
//    zltp::PirSession through EstablishOptions). The first Send and the
//    last Receive of a session call split the call into the client's
//    pre-send work (hash + DPF keygen + encode), the wire wait (network,
//    reactor and server), and post-receive work (combine + unpack +
//    verify).
//  * TracingChannel wraps each lightweb::BlobChannel handed to the
//    Browser; a page load minus the time inside its channel calls is the
//    lightweb layer's self time (route planning, parse, render).
//  * Server stages come from obs::TraceRing snapshots (PollServerTraces).
//
// Every span carries the bench-assigned id of the op that caused it.
// Spans stay in memory and are written out once, at the end of the run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "lightweb/channel.h"
#include "net/transport.h"

namespace lwbench {

// Tracing is switched on only for the traced phase of a --trace 1 run;
// the decorators are pass-through otherwise.
void SetTracing(bool on);
bool TracingOn();

// Op boundaries, called by the runner around each op while tracing.
void BeginOp(const char* op_name);
void EndOp();

// One zltp session call (a GET, a batch, a dummy) inside the current op.
// `serial_server_rounds` is how many server round trips the call makes
// one after another: a single GET visits its two servers in turn (2), a
// pipelined batch reaches both at once (1).
class CallScope {
 public:
  CallScope(const char* name, int serial_server_rounds);
  ~CallScope();
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  bool active_;
};

class TracingTransport final : public lw::net::Transport {
 public:
  explicit TracingTransport(std::unique_ptr<lw::net::Transport> inner);
  lw::Status Send(const lw::net::Frame& frame,
                  const lw::net::Deadline& deadline) override;
  lw::Result<lw::net::Frame> Receive(
      const lw::net::Deadline& deadline) override;
  void Close() override;

 private:
  std::unique_ptr<lw::net::Transport> inner_;
};

class TracingChannel final : public lw::lightweb::BlobChannel {
 public:
  explicit TracingChannel(std::unique_ptr<lw::lightweb::BlobChannel> inner);
  lw::Result<lw::Bytes> PrivateGet(std::string_view key) override;
  lw::Status DummyGet() override;
  std::size_t record_size() const override;
  lw::Result<std::vector<lw::Result<lw::Bytes>>> FetchPage(
      const std::vector<std::string>& keys, int dummies) override;
  std::uint64_t observed_queries() const override;

 private:
  std::unique_ptr<lw::lightweb::BlobChannel> inner_;
};

// Client-side sums over the traced ops.
struct TraceTotals {
  std::uint64_t ops = 0;
  std::uint64_t op_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t pre_send_ns = 0;
  std::uint64_t wire_ns = 0;
  std::uint64_t post_recv_ns = 0;
  std::uint64_t server_on_path_ns = 0;  // estimated; see trace.cc
  std::uint64_t lightweb_ops = 0;  // ops that went through a TracingChannel
  std::uint64_t lightweb_self_ns = 0;
};
TraceTotals ClientTotals();

// Server-side stage sums from obs::TraceRing, over every trace recorded
// since the previous ResetServerTraces().
struct ServerTotals {
  std::uint64_t traces = 0;
  std::uint64_t missed = 0;  // overwritten in the ring before a poll saw them
  std::uint64_t decode_ns = 0;
  std::uint64_t reply_ns = 0;
  std::uint64_t total_ns = 0;
};
void ResetServerTraces();
void PollServerTraces(bool force);
ServerTotals ServerTraceTotals();

// Writes every span and server trace as JSON lines; returns the count.
std::size_t WriteSpans(const std::string& path);

}  // namespace lwbench
