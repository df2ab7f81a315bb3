#include "fuzz/targets.h"

#include <algorithm>
#include <string>

#include "dpf/dpf.h"
#include "json/json.h"
#include "lightweb/snapshot.h"
#include "lightweb/universe.h"
#include "net/transport.h"
#include "pir/cuckoo_store.h"
#include "pir/packing.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/hex.h"
#include "util/io.h"
#include "zltp/messages.h"

namespace lw::fuzz {
namespace {

std::string_view AsText(const std::uint8_t* data, std::size_t size) {
  return std::string_view(reinterpret_cast<const char*>(data), size);
}

// Re-encoding an accepted ZLTP message must reproduce the frame bit for bit:
// the decoders are strict (ExpectEnd + field validation), so decode is a
// bijection between accepted byte strings and message values.
template <typename M>
void CheckZltpRoundTrip(const Result<M>& decoded, const net::Frame& orig) {
  if (!decoded.ok()) return;
  const net::Frame re = zltp::Encode(*decoded);
  LW_CHECK_MSG(re.type == orig.type && re.payload == orig.payload,
               "ZLTP re-encode did not reproduce the accepted frame");
}

}  // namespace

int FuzzJson(const std::uint8_t* data, std::size_t size) {
  const auto parsed = json::Parse(AsText(data, size));
  if (!parsed.ok()) return 0;
  // Canonical-serialization fixpoint: writing an accepted document must
  // re-parse to the same value and to the same bytes.
  const std::string canonical = json::Write(*parsed);
  const auto reparsed = json::Parse(canonical);
  LW_CHECK_MSG(reparsed.ok(), "canonical JSON failed to re-parse");
  LW_CHECK_MSG(*reparsed == *parsed, "JSON canonical roundtrip mismatch");
  LW_CHECK_MSG(json::Write(*reparsed) == canonical,
               "JSON canonical serialization is not a fixpoint");
  return 0;
}

int FuzzZltp(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  net::Frame f;
  f.type = static_cast<std::uint8_t>(1 + data[0] % 5);
  f.payload.assign(data + 1, data + size);
  switch (static_cast<zltp::MsgType>(f.type)) {
    case zltp::MsgType::kClientHello:
      CheckZltpRoundTrip(zltp::DecodeClientHello(f), f);
      break;
    case zltp::MsgType::kServerHello:
      CheckZltpRoundTrip(zltp::DecodeServerHello(f), f);
      break;
    case zltp::MsgType::kGetRequest:
      CheckZltpRoundTrip(zltp::DecodeGetRequest(f), f);
      break;
    case zltp::MsgType::kGetResponse:
      CheckZltpRoundTrip(zltp::DecodeGetResponse(f), f);
      break;
    case zltp::MsgType::kError:
      CheckZltpRoundTrip(zltp::DecodeError(f), f);
      break;
    default:
      break;
  }
  return 0;
}

int FuzzDpf(const std::uint8_t* data, std::size_t size) {
  const ByteSpan span(data, size);
  const Bytes original(span.begin(), span.end());

  if (const auto key = dpf::DpfKey::Deserialize(span); key.ok()) {
    LW_CHECK_MSG(key->Serialize() == original,
                 "DPF key re-serialization mismatch");
    // Deserialize validated domain_bits, so evaluation must be safe.
    (void)dpf::EvalPoint(*key, 0);
    if (key->domain_bits <= 10) {
      const std::uint64_t domain = std::uint64_t{1} << key->domain_bits;
      const dpf::BitVector bits = dpf::EvalFull(*key);
      for (std::uint64_t x = 0; x < domain; ++x) {
        LW_CHECK_MSG(dpf::GetBit(bits, x) == dpf::EvalPoint(*key, x),
                     "EvalFull disagrees with EvalPoint");
      }
      // The last input byte picks the split, so splits past the tree's
      // levels (sub-keys sharing a leaf seed) are reached too.
      const int top = data[size - 1] % (key->domain_bits + 1);
      const auto shards = dpf::SplitForShards(*key, top);
      for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto redone =
            dpf::SubtreeKey::Deserialize(shards[s].Serialize());
        LW_CHECK_MSG(redone.ok(), "split subtree key failed to deserialize");
        const dpf::BitVector sub_bits = dpf::EvalSubtree(*redone);
        for (std::uint64_t j = 0; j < domain >> top; ++j) {
          LW_CHECK_MSG(
              dpf::GetBit(sub_bits, j) == dpf::GetBit(bits, s + (j << top)),
              "EvalSubtree disagrees with EvalFull");
        }
      }
    }
  }
  if (const auto sub = dpf::SubtreeKey::Deserialize(span); sub.ok()) {
    LW_CHECK_MSG(sub->Serialize() == original,
                 "subtree key re-serialization mismatch");
    if (sub->domain_bits <= 12) (void)dpf::EvalSubtree(*sub);
  }
  return 0;
}

int FuzzReader(const std::uint8_t* data, std::size_t size) {
  // The input doubles as op-script and data: each opcode byte selects the
  // next decode call on the bytes that follow it. Every call must either
  // yield a value or a clean ProtocolError; progress is guaranteed because
  // the opcode byte itself is always consumed.
  Reader r(ByteSpan(data, size));
  while (!r.AtEnd()) {
    const auto op = r.U8();
    LW_CHECK_MSG(op.ok(), "U8 failed with bytes remaining");
    switch (*op % 8) {
      case 0: (void)r.U8().ok(); break;
      case 1: (void)r.U16().ok(); break;
      case 2: (void)r.U32().ok(); break;
      case 3: (void)r.U64().ok(); break;
      case 4: (void)r.Raw(*op).ok(); break;
      case 5: (void)r.LengthPrefixed().ok(); break;
      case 6: (void)r.String().ok(); break;
      case 7: (void)r.ExpectEnd().ok(); break;
    }
  }
  LW_CHECK_MSG(r.ExpectEnd().ok(), "reader did not consume all input");

  // Writer→Reader roundtrip of the raw input.
  Writer w;
  w.LengthPrefixed(ByteSpan(data, size));
  w.String(AsText(data, size));
  Reader rr(w.bytes());
  const auto b = rr.LengthPrefixed();
  const auto s = rr.String();
  LW_CHECK_MSG(b.ok() && s.ok() && rr.AtEnd(),
               "writer output failed to read back");
  LW_CHECK_MSG(*b == Bytes(data, data + size) && *s == AsText(data, size),
               "writer/reader roundtrip mismatch");
  return 0;
}

int FuzzHex(const std::uint8_t* data, std::size_t size) {
  const auto decoded = HexDecode(AsText(data, size));
  if (!decoded.ok()) return 0;
  LW_CHECK_MSG(decoded->size() * 2 == size, "hex decode length mismatch");
  // Encoding canonicalizes to lowercase; a second decode must agree.
  const std::string re = HexEncode(*decoded);
  const auto again = HexDecode(re);
  LW_CHECK_MSG(again.ok() && *again == *decoded,
               "hex encode/decode roundtrip mismatch");
  return 0;
}

int FuzzTable(const std::uint8_t* data, std::size_t size) {
  if (size > (std::size_t{1} << 16)) return 0;  // bound per-input work

  // Snapshot load into a deliberately tiny universe; corpus seeds use the
  // same config so valid snapshots exercise the deep paths (ownership, code
  // blob LightScript parsing, hex-encoded data blobs, path validation).
  lightweb::UniverseConfig cfg;
  cfg.code_domain_bits = 4;
  cfg.code_blob_size = 2048;
  cfg.data_domain_bits = 4;
  cfg.data_blob_size = 512;
  cfg.fetches_per_page = 2;
  cfg.master_seed = Bytes(16, 0xa5);
  lightweb::Universe universe(cfg);
  (void)lightweb::LoadUniverseSnapshot(universe, AsText(data, size));

  // Record-level decoders that cuckoo keyword lookups feed on.
  const ByteSpan span(data, size);
  if (const auto rec = pir::UnpackRecord(span); rec.ok()) {
    const auto repacked =
        pir::PackRecord(rec->fingerprint, rec->payload, size);
    LW_CHECK_MSG(repacked.ok(), "unpacked record failed to re-pack");
  }
  if (size >= 2) {
    const std::size_t half = size / 2;
    (void)pir::InterpretCuckooRecords(span.subspan(0, half),
                                      span.subspan(half), /*fingerprint=*/0);
  }
  return 0;
}

const std::vector<Target>& AllTargets() {
  static const std::vector<Target> kTargets = {
      {"json", FuzzJson},   {"zltp", FuzzZltp}, {"dpf", FuzzDpf},
      {"reader", FuzzReader}, {"hex", FuzzHex}, {"table", FuzzTable},
  };
  return kTargets;
}

TargetFn FindTarget(std::string_view name) {
  for (const Target& t : AllTargets()) {
    if (name == t.name) return t.fn;
  }
  return nullptr;
}

}  // namespace lw::fuzz
