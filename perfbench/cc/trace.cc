#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lwbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_op{1};
std::atomic<std::uint64_t> g_next_span{1};

struct Span {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

std::mutex g_mu;  // guards everything below
std::vector<Span> g_spans;
TraceTotals g_totals;
std::vector<lw::obs::RequestTrace> g_server_traces;
std::uint64_t g_last_trace_id = 0;
std::uint64_t g_ring_base = 0;  // ring total_recorded() at reset
ServerTotals g_server;

// The current op of this load-generator thread.
struct OpState {
  bool open = false;
  std::uint64_t op = 0;
  std::uint64_t span = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t channel_ns = 0;  // inside TracingChannel calls
  int channel_calls = 0;
  std::uint64_t channel_span = 0;  // open TracingChannel call, if any
  // Marks of the open CallScope, written by TracingTransport.
  std::uint64_t call_span = 0;
  std::uint64_t first_send_ns = 0;
  std::uint64_t last_recv_ns = 0;
  // Registry readings at the call's start (see ServerNsOnPath).
  HistSum server0, rtt0;
  int rounds = 0;
  std::vector<Span> spans;  // flushed to g_spans at EndOp
  TraceTotals totals;
};
thread_local OpState t_op;

std::uint64_t NewSpanId() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

// Server time on the call's blocking path, estimated from the registry
// requests observed while the call ran: each serial server round costs
// the mean request time (decode through reply, queue wait included). A
// front-end records no request time, so its shard round trip stands in.
// Exact for one load-generator thread; with two, their calls' requests
// mix in the mean.
std::uint64_t ServerNsOnPath(const OpState& op) {
  const HistSum server = ReadHist(lw::obs::M().server_request_ns);
  const HistSum rtt = ReadHist(lw::obs::M().fanout_shard_rtt_ns);
  std::uint64_t mean = 0;
  if (server.count > op.server0.count) {
    mean = (server.sum - op.server0.sum) / (server.count - op.server0.count);
  } else if (rtt.count > op.rtt0.count) {
    mean = (rtt.sum - op.rtt0.sum) / (rtt.count - op.rtt0.count);
  }
  return mean * static_cast<std::uint64_t>(op.rounds);
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }
bool TracingOn() { return g_tracing.load(std::memory_order_acquire); }

void BeginOp(const char* op_name) {
  t_op = OpState{};
  t_op.open = true;
  t_op.op = g_next_op.fetch_add(1, std::memory_order_relaxed);
  t_op.span = NewSpanId();
  t_op.name = op_name;
  t_op.start_ns = NowNs();
}

void EndOp() {
  if (!t_op.open) return;
  const std::uint64_t end = NowNs();
  t_op.spans.push_back({t_op.op, t_op.span, 0, t_op.name, t_op.start_ns, end});
  const std::uint64_t op_ns = end - t_op.start_ns;
  if (t_op.channel_calls > 0) {
    t_op.spans.push_back({t_op.op, NewSpanId(), t_op.span,
                          "lightweb.visit_self", t_op.start_ns,
                          t_op.start_ns + (op_ns - t_op.channel_ns)});
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.insert(g_spans.end(), t_op.spans.begin(), t_op.spans.end());
  g_totals.ops += 1;
  g_totals.op_ns += op_ns;
  g_totals.calls += t_op.totals.calls;
  g_totals.pre_send_ns += t_op.totals.pre_send_ns;
  g_totals.wire_ns += t_op.totals.wire_ns;
  g_totals.post_recv_ns += t_op.totals.post_recv_ns;
  g_totals.server_on_path_ns += t_op.totals.server_on_path_ns;
  if (t_op.channel_calls > 0) {
    g_totals.lightweb_ops += 1;
    g_totals.lightweb_self_ns += op_ns - t_op.channel_ns;
  }
  t_op.open = false;
}

CallScope::CallScope(const char* name, int serial_server_rounds)
    : active_(t_op.open) {
  if (!active_) return;
  t_op.call_span = NewSpanId();
  t_op.first_send_ns = 0;
  t_op.last_recv_ns = 0;
  t_op.spans.push_back({t_op.op, t_op.call_span,
                        t_op.channel_span != 0 ? t_op.channel_span : t_op.span,
                        name, NowNs(), 0});
  t_op.totals.calls += 1;
  t_op.rounds = serial_server_rounds;
  t_op.server0 = ReadHist(lw::obs::M().server_request_ns);
  t_op.rtt0 = ReadHist(lw::obs::M().fanout_shard_rtt_ns);
}

CallScope::~CallScope() {
  if (!active_) return;
  const std::uint64_t end = NowNs();
  Span* call = nullptr;
  for (auto it = t_op.spans.rbegin(); it != t_op.spans.rend(); ++it) {
    if (it->id == t_op.call_span) {
      call = &*it;
      break;
    }
  }
  call->end_ns = end;
  const std::uint64_t start = call->start_ns;
  const std::uint64_t parent = call->id;
  // A call that never reached the wire (failed before sending) is all
  // client-side work.
  const std::uint64_t first = t_op.first_send_ns ? t_op.first_send_ns : end;
  const std::uint64_t last = t_op.last_recv_ns ? t_op.last_recv_ns : first;
  t_op.spans.push_back(
      {t_op.op, NewSpanId(), parent, "zltp.client.pre_send", start, first});
  t_op.spans.push_back(
      {t_op.op, NewSpanId(), parent, "zltp.client.wire_wait", first, last});
  t_op.spans.push_back(
      {t_op.op, NewSpanId(), parent, "zltp.client.post_recv", last, end});
  t_op.totals.pre_send_ns += first - start;
  t_op.totals.wire_ns += last - first;
  t_op.totals.post_recv_ns += end - last;
  t_op.totals.server_on_path_ns += ServerNsOnPath(t_op);
  t_op.call_span = 0;
}

// ------------------------------------------------------ TracingTransport

TracingTransport::TracingTransport(std::unique_ptr<lw::net::Transport> inner)
    : inner_(std::move(inner)) {}

lw::Status TracingTransport::Send(const lw::net::Frame& frame,
                                  const lw::net::Deadline& deadline) {
  if (t_op.open && t_op.call_span != 0 && t_op.first_send_ns == 0) {
    t_op.first_send_ns = NowNs();
  }
  return inner_->Send(frame, deadline);
}

lw::Result<lw::net::Frame> TracingTransport::Receive(
    const lw::net::Deadline& deadline) {
  auto frame = inner_->Receive(deadline);
  if (t_op.open && t_op.call_span != 0) t_op.last_recv_ns = NowNs();
  return frame;
}

void TracingTransport::Close() { inner_->Close(); }

// -------------------------------------------------------- TracingChannel

namespace {

// Times one channel call and opens its span so the CallScope inside nests
// under it.
template <typename F>
auto ChannelCall(const char* name, int rounds, F&& f) {
  if (!t_op.open) return f();
  const std::uint64_t start = NowNs();
  const std::uint64_t span = NewSpanId();
  t_op.spans.push_back({t_op.op, span, t_op.span, name, start, 0});
  const std::size_t index = t_op.spans.size() - 1;
  t_op.channel_span = span;
  auto result = [&] {
    CallScope call("zltp.session_call", rounds);
    return f();
  }();
  t_op.channel_span = 0;
  const std::uint64_t end = NowNs();
  t_op.spans[index].end_ns = end;
  t_op.channel_ns += end - start;
  t_op.channel_calls += 1;
  return result;
}

}  // namespace

TracingChannel::TracingChannel(
    std::unique_ptr<lw::lightweb::BlobChannel> inner)
    : inner_(std::move(inner)) {}

lw::Result<lw::Bytes> TracingChannel::PrivateGet(std::string_view key) {
  return ChannelCall("lightweb.channel.get", 2,
                     [&] { return inner_->PrivateGet(key); });
}

lw::Status TracingChannel::DummyGet() {
  return ChannelCall("lightweb.channel.dummy", 2,
                     [&] { return inner_->DummyGet(); });
}

std::size_t TracingChannel::record_size() const {
  return inner_->record_size();
}

lw::Result<std::vector<lw::Result<lw::Bytes>>> TracingChannel::FetchPage(
    const std::vector<std::string>& keys, int dummies) {
  return ChannelCall("lightweb.channel.fetch_page", 1,
                     [&] { return inner_->FetchPage(keys, dummies); });
}

std::uint64_t TracingChannel::observed_queries() const {
  return inner_->observed_queries();
}

TraceTotals ClientTotals() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_totals;
}

// --------------------------------------------------------- server traces

void ResetServerTraces() {
  const auto& ring = lw::obs::TraceRing::Default();
  const auto snapshot = ring.Snapshot();
  std::lock_guard<std::mutex> lock(g_mu);
  g_server = ServerTotals{};
  g_last_trace_id = snapshot.empty() ? 0 : snapshot.back().trace_id;
  g_ring_base = ring.total_recorded();
}

void PollServerTraces(bool force) {
  const auto& ring = lw::obs::TraceRing::Default();
  // Copying the ring costs more than a µs-scale op, so it is copied only
  // once a quarter of it is new (or when forced at the end of a phase).
  if (!force) {
    std::lock_guard<std::mutex> lock(g_mu);
    if (ring.total_recorded() - g_ring_base - g_server.traces <
        ring.capacity() / 4) {
      return;
    }
  }
  const auto snapshot = ring.Snapshot();
  const std::uint64_t recorded = ring.total_recorded();
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : snapshot) {
    if (t.trace_id <= g_last_trace_id) continue;
    g_last_trace_id = t.trace_id;
    g_server.traces += 1;
    g_server.decode_ns += t.stages.decode_ns;
    g_server.reply_ns += t.stages.reply_ns;
    g_server.total_ns += t.total_ns;
    g_server_traces.push_back(t);
  }
  const std::uint64_t since = recorded - g_ring_base;
  g_server.missed = since > g_server.traces ? since - g_server.traces : 0;
}

ServerTotals ServerTraceTotals() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_server;
}

std::size_t WriteSpans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  for (const Span& s : g_spans) {
    std::fprintf(f,
                 "{\"op\":%llu,\"span\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  // Server traces carry no op id: the server assigns its own ids and never
  // learns which client op a request belongs to (docs/OBSERVABILITY.md).
  for (const auto& t : g_server_traces) {
    std::fprintf(f,
                 "{\"server_trace\":%llu,\"total_ns\":%llu,\"decode_ns\":%llu,"
                 "\"expand_ns\":%llu,\"scan_ns\":%llu,\"reply_ns\":%llu}\n",
                 static_cast<unsigned long long>(t.trace_id),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.stages.decode_ns),
                 static_cast<unsigned long long>(t.stages.expand_ns),
                 static_cast<unsigned long long>(t.stages.scan_ns),
                 static_cast<unsigned long long>(t.stages.reply_ns));
  }
  std::fclose(f);
  return g_spans.size() + g_server_traces.size();
}

}  // namespace lwbench
