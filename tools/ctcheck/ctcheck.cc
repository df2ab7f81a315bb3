// ctcheck — dudect-style dynamic constant-time verifier.
//
// lwlint proves the *shape* of the code is data-oblivious; ctcheck checks
// the *measured* behavior of the binary the compiler actually produced.
// Methodology (Reparaz–Balasch–Verbauwhede, "dude, is my code constant
// time?"): for each target we time the same operation over two classes of
// secret inputs — one fixed, one varying — with the class chosen at random
// per sample, then compare the two timing populations with Welch's t-test
// at several upper-percentile crops (cropping sheds OS/interrupt tails).
// A |t| above the threshold means the distributions differ, i.e. the
// secret leaks into timing.
//
// Targets cover the five constant-time kernels the paper's privacy
// argument leans on:
//   aead-tag-verify   ChaCha20-Poly1305 tag rejection (mismatch position)
//   poly1305-mac      Poly1305 final reduction (fixed vs random message)
//   cuckoo-match      keyword fingerprint match (which slot matched)
//   oram-stash-scan   Path ORAM stash selection (present vs absent id)
//   dpf-leaf-convert  DPF leaf stage: Convert + 64x128-bit transpose
//                     (fixed vs random leaf seeds)
// plus one deliberately variable-time reference:
//   vartime-ref       early-exit byte compare — ctcheck must DETECT this
//                     leak, or the harness itself is broken (self-test).
//
// Exit 0 iff every constant-time target measures clean AND the reference
// leaks. `--smoke` keeps the sample count CI-friendly; `--json=PATH`
// writes a machine-readable report next to the bench artifacts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <ctime>
#endif

#include "crypto/aead.h"
#include "crypto/poly1305.h"
#include "dpf/dpf.h"
#include "oram/path_oram.h"
#include "pir/cuckoo_store.h"
#include "pir/packing.h"
#include "util/bytes.h"

namespace lw::ctcheck {
namespace {

// Deterministic PRNG: ctcheck must produce the same verdict on the same
// binary, so no libc rand and no nondeterministic seeding.
class Xorshift64 {
 public:
  explicit Xorshift64(std::uint64_t state) : s_(state ? state : 0x9e3779b9) {}
  std::uint64_t Next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  std::uint8_t Byte() { return static_cast<std::uint8_t>(Next() >> 32); }
  void Fill(MutableByteSpan out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = Byte();
  }

 private:
  std::uint64_t s_;
};

inline void DoNotOptimize(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __asm__ volatile("" : : "g"(p) : "memory");
#else
  (void)p;
#endif
}

// Orders the timed region after every earlier load and store, so the work
// a class did to prepare its input cannot bleed into the measurement.
inline void Fence() {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_mfence();
  _mm_lfence();
#else
  __atomic_thread_fence(__ATOMIC_SEQ_CST);
#endif
}

inline std::uint64_t Now() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned aux;
  return __rdtscp(&aux);  // serializes against earlier instructions
#else
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

// Two timing populations: class 0 = fixed secret, class 1 = varying secret.
struct Timings {
  std::vector<double> cls[2];
};

double WelchT(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  auto mean_var = [](const std::vector<double>& v, double& mean,
                     double& var) {
    double sum = 0.0;
    for (double x : v) sum += x;
    mean = sum / static_cast<double>(v.size());
    double acc = 0.0;
    for (double x : v) acc += (x - mean) * (x - mean);
    var = acc / static_cast<double>(v.size() - 1);
  };
  double ma, va, mb, vb;
  mean_var(a, ma, va);
  mean_var(b, mb, vb);
  const double denom = std::sqrt(va / static_cast<double>(a.size()) +
                                 vb / static_cast<double>(b.size()));
  if (denom == 0.0) return 0.0;
  return (ma - mb) / denom;
}

// Max |t| over several upper-percentile crops of the pooled distribution.
// The uncropped test drowns in scheduler tails; heavily cropped tests focus
// on the fast (undisturbed) executions where a data-dependent path shows.
double MaxTOverCrops(const Timings& t) {
  static const double kCrops[] = {1.0, 0.999, 0.99, 0.95, 0.9, 0.8};
  std::vector<double> pooled;
  pooled.reserve(t.cls[0].size() + t.cls[1].size());
  pooled.insert(pooled.end(), t.cls[0].begin(), t.cls[0].end());
  pooled.insert(pooled.end(), t.cls[1].begin(), t.cls[1].end());
  if (pooled.empty()) return 0.0;
  std::sort(pooled.begin(), pooled.end());
  double max_t = 0.0;
  for (const double q : kCrops) {
    const std::size_t idx = std::min(
        pooled.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(pooled.size() - 1)));
    const double cut = pooled[idx];
    std::vector<double> a, b;
    for (double x : t.cls[0]) {
      if (x <= cut) a.push_back(x);
    }
    for (double x : t.cls[1]) {
      if (x <= cut) b.push_back(x);
    }
    max_t = std::max(max_t, std::fabs(WelchT(a, b)));
  }
  return max_t;
}

// ------------------------------------------------------------- targets

Timings RunAeadTagVerify(std::size_t samples, Xorshift64& rng) {
  // Both classes submit a ciphertext whose tag is WRONG, so both take the
  // rejection path; they differ only in WHERE the forged tag first differs
  // from the correct one (byte 0 vs the whole tag randomized). An early-exit
  // tag compare would reject class 0 faster.
  const Bytes key(crypto::kAeadKeySize, 0x42);
  const Bytes nonce(crypto::kAeadNonceSize, 0x17);
  const Bytes aad = ToBytes("ctcheck-aead");
  Bytes plaintext(1024, 0xab);
  const Bytes sealed = crypto::AeadSeal(key, nonce, aad, plaintext);

  Timings t;
  Bytes forged = sealed;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    std::memcpy(forged.data(), sealed.data(), sealed.size());
    const std::size_t auth_offset = sealed.size() - crypto::kAeadTagSize;
    if (cls == 0) {
      forged[auth_offset] ^= 0x01;  // differs at the first tag byte only
    } else {
      for (std::size_t i = 0; i < crypto::kAeadTagSize; ++i) {
        forged[auth_offset + i] ^= rng.Byte() | 0x01;
      }
    }
    const std::uint64_t t0 = Now();
    auto r = crypto::AeadOpen(key, nonce, aad, forged);
    const std::uint64_t t1 = Now();
    DoNotOptimize(&r);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

// Fixed-vs-random inputs prepared before the timed loop. Each sample draws
// a slot, then class 0 copies the fixed input from that slot of one pool
// and class 1 the random input in that slot of an equal-sized pool: both
// classes do the same draw and the same copy with the same cache
// behaviour, so the only difference left before the clock read is the
// secret data itself.
class InputPool {
 public:
  InputPool(std::size_t size, Xorshift64& rng, const Bytes& fixed)
      : size_(size), fixed_(size * kInputs), random_(size * kInputs) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      std::memcpy(fixed_.data() + i * size, fixed.data(), size);
    }
    rng.Fill(random_);
  }
  const std::uint8_t* Pick(int cls, Xorshift64& rng) const {
    const std::size_t slot = rng.Next() % kInputs;
    return (cls == 0 ? fixed_ : random_).data() + slot * size_;
  }

 private:
  static constexpr std::size_t kInputs = 64;
  std::size_t size_;
  Bytes fixed_;
  Bytes random_;
};

Timings RunPoly1305(std::size_t samples, Xorshift64& rng) {
  // Classic fixed-vs-random message under a fixed key: the final mod-p
  // reduction and the per-block carries must not depend on message words.
  const Bytes key(crypto::kPoly1305KeySize, 0x5a);
  // Class 0 is all 0xff: max limbs, forcing carries.
  const InputPool inputs(512, rng, Bytes(512, 0xff));
  Bytes msg(512, 0);
  std::uint8_t tag[crypto::kPoly1305TagSize];

  Timings t;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    std::memcpy(msg.data(), inputs.Pick(cls, rng), msg.size());
    Fence();
    const std::uint64_t t0 = Now();
    crypto::Poly1305(key, msg, tag);
    const std::uint64_t t1 = Now();
    DoNotOptimize(tag);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

Timings RunCuckooMatch(std::size_t samples, Xorshift64& rng) {
  // Which of the two candidate slots holds the queried keyword is a
  // function of the private query; InterpretCuckooRecords must take the
  // same time whether slot A or slot B matched.
  const std::size_t record_size = 1024;
  const std::uint64_t fp_a = 0x1111222233334444ull;
  const std::uint64_t fp_b = 0x5555666677778888ull;
  Bytes payload(256, 0x33);
  const Bytes rec_a = *pir::PackRecord(fp_a, payload, record_size);
  const Bytes rec_b = *pir::PackRecord(fp_b, payload, record_size);

  Timings t;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    const std::uint64_t fp = cls == 0 ? fp_a : fp_b;
    const std::uint64_t t0 = Now();
    auto r = pir::InterpretCuckooRecords(rec_a, rec_b, fp);
    const std::uint64_t t1 = Now();
    DoNotOptimize(&r);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

Timings RunOramStashScan(std::size_t samples, Xorshift64& rng) {
  // The stash scan must touch every entry identically whether the wanted
  // block is present (class 0: always the same resident id) or absent
  // (class 1: random never-inserted id).
  std::unordered_map<std::uint64_t, Bytes> stash;
  Bytes block(256);
  for (std::uint64_t id = 0; id < 64; ++id) {
    rng.Fill(block);
    stash.emplace(id, block);
  }
  Bytes out(256, 0);

  Timings t;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    const std::uint64_t want = cls == 0 ? 7 : (rng.Next() | (1ull << 32));
    const std::uint64_t t0 = Now();
    const std::uint64_t mask = oram::CtStashScan(stash, want, out);
    const std::uint64_t t1 = Now();
    DoNotOptimize(&mask);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

Timings RunDpfLeafConvert(std::size_t samples, Xorshift64& rng) {
  // The leaf stage of every DPF evaluation turns 64 leaf seeds into 8,192
  // share bits (AES-MMO, masked CW_out, bit transpose). Its time must
  // not depend on the seeds: class 0 converts the same fixed group of leaf
  // seeds every time, class 1 a random group.
  constexpr std::size_t kBytes = 64 * dpf::kSeedSize;
  const InputPool inputs(kBytes, rng, Bytes(kBytes, 0x3c));
  Bytes seeds(kBytes);
  std::uint8_t ts[64];
  for (std::uint8_t& bit : ts) bit = static_cast<std::uint8_t>(rng.Next() & 1);
  std::uint8_t cw_out[dpf::kSeedSize];
  rng.Fill(MutableByteSpan(cw_out, sizeof cw_out));
  std::uint64_t out[128];

  Timings t;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    std::memcpy(seeds.data(), inputs.Pick(cls, rng), kBytes);
    Fence();
    const std::uint64_t t0 = Now();
    dpf::ConvertLeafGroup(seeds.data(), ts, cw_out, out);
    const std::uint64_t t1 = Now();
    DoNotOptimize(out);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

// Deliberately variable-time reference: the early-exit compare every C
// programmer writes first. ctcheck exists to catch exactly this; if the
// harness cannot, the harness is broken.
bool VariableTimeEqRef(const std::uint8_t* a, const std::uint8_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

Timings RunVartimeRef(std::size_t samples, Xorshift64& rng) {
  const std::size_t n = 4096;
  Bytes a(n);
  rng.Fill(a);
  Bytes b = a;

  Timings t;
  for (std::size_t s = 0; s < samples; ++s) {
    const int cls = static_cast<int>(rng.Next() & 1);
    std::memcpy(b.data(), a.data(), n);
    if (cls == 1) b[0] ^= 0xff;  // mismatch at byte 0: early exit
    const std::uint64_t t0 = Now();
    const bool eq = VariableTimeEqRef(a.data(), b.data(), n);
    const std::uint64_t t1 = Now();
    DoNotOptimize(&eq);
    t.cls[cls].push_back(static_cast<double>(t1 - t0));
  }
  return t;
}

// ------------------------------------------------------------- driver

struct Target {
  const char* name;
  Timings (*run)(std::size_t, Xorshift64&);
  bool expect_leak;
};

const Target kTargets[] = {
    {"aead-tag-verify", RunAeadTagVerify, false},
    {"poly1305-mac", RunPoly1305, false},
    {"cuckoo-match", RunCuckooMatch, false},
    {"oram-stash-scan", RunOramStashScan, false},
    {"dpf-leaf-convert", RunDpfLeafConvert, false},
    {"vartime-ref", RunVartimeRef, true},
};

constexpr double kLeakThreshold = 10.0;  // dudect's "definitely leaking" bar

struct TargetReport {
  std::string name;
  double max_t = 0.0;
  std::size_t samples = 0;
  bool expect_leak = false;
  bool leak = false;
  bool pass = false;
};

std::string JsonReport(const std::vector<TargetReport>& reports,
                       std::size_t samples, bool all_pass) {
  std::string out = "{\n  \"tool\": \"ctcheck\",\n";
  out += "  \"threshold\": " + std::to_string(kLeakThreshold) + ",\n";
  out += "  \"samples_per_target\": " + std::to_string(samples) + ",\n";
  out += std::string("  \"pass\": ") + (all_pass ? "true" : "false") + ",\n";
  out += "  \"targets\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TargetReport& r = reports[i];
    out += "    {\"name\": \"" + r.name + "\", \"max_t\": " +
           std::to_string(r.max_t) + ", \"leak\": " +
           (r.leak ? "true" : "false") + ", \"expect_leak\": " +
           (r.expect_leak ? "true" : "false") + ", \"pass\": " +
           (r.pass ? "true" : "false") + "}";
    out += i + 1 < reports.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

int Main(int argc, char** argv) {
  std::size_t samples = 100000;
  std::string json_path;
  std::vector<std::string> filters;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      samples = 20000;
    } else if (arg.rfind("--samples=", 0) == 0) {
      samples = static_cast<std::size_t>(std::stoull(arg.substr(10)));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--list") {
      for (const Target& t : kTargets) std::printf("%s\n", t.name);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: ctcheck [--smoke] [--samples=N] [--json=PATH] "
                  "[--list] [target...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ctcheck: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      filters.push_back(arg);
    }
  }

  std::vector<TargetReport> reports;
  bool all_pass = true;
  for (const Target& target : kTargets) {
    if (!filters.empty() &&
        std::find(filters.begin(), filters.end(), target.name) ==
            filters.end()) {
      continue;
    }
    Xorshift64 rng(0x6c77637463686b21ull);  // fixed: verdicts reproducible
    // Warm-up pass (caches, branch predictors, frequency scaling) is
    // discarded.
    (void)target.run(samples / 20 + 16, rng);
    const Timings t = target.run(samples, rng);
    TargetReport r;
    r.name = target.name;
    r.samples = t.cls[0].size() + t.cls[1].size();
    r.max_t = MaxTOverCrops(t);
    r.expect_leak = target.expect_leak;
    r.leak = r.max_t > kLeakThreshold;
    r.pass = r.leak == r.expect_leak;
    all_pass = all_pass && r.pass;
    std::printf("%-16s max|t| = %8.2f  %s%s\n", r.name.c_str(), r.max_t,
                r.leak ? "LEAK" : "constant-time",
                r.pass ? "" : "  ** UNEXPECTED **");
    reports.push_back(std::move(r));
  }
  if (reports.empty()) {
    std::fprintf(stderr, "ctcheck: no targets matched\n");
    return 2;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ctcheck: cannot write %s\n", json_path.c_str());
      return 2;
    }
    const std::string doc = JsonReport(reports, samples, all_pass);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
  }
  if (!all_pass) {
    std::fprintf(stderr,
                 "ctcheck: FAIL — a constant-time target leaked, or the "
                 "variable-time reference went undetected\n");
  }
  return all_pass ? 0 : 1;
}

}  // namespace
}  // namespace lw::ctcheck

int main(int argc, char** argv) { return lw::ctcheck::Main(argc, argv); }
