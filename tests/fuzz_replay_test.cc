// Replays the checked-in fuzz corpora under gtest (the same corpora the
// tier-1 ctest `fuzz.replay` runs via the CLI), exercises ReplayCorpus's
// error paths, and pins down what each checked-in regression input proves:
// every one of them crashed or mis-roundtripped a decoder before its fix.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "dpf/dpf.h"
#include "fuzz/replay.h"
#include "fuzz/targets.h"
#include "json/json.h"
#include "net/transport.h"
#include "util/bytes.h"
#include "zltp/messages.h"

namespace lw {
namespace {

#ifndef LW_FUZZ_CORPUS_DIR
#error "LW_FUZZ_CORPUS_DIR must point at fuzz/corpus"
#endif

std::string CorpusPath(const std::string& rel) {
  return std::string(LW_FUZZ_CORPUS_DIR) + "/" + rel;
}

Bytes ReadCorpusFile(const std::string& rel) {
  std::ifstream in(CorpusPath(rel), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus input " << rel;
  Bytes out;
  char c;
  while (in.get(c)) out.push_back(static_cast<std::uint8_t>(c));
  return out;
}

std::string ReadCorpusText(const std::string& rel) {
  const Bytes b = ReadCorpusFile(rel);
  return std::string(b.begin(), b.end());
}

// ------------------------------------------------------------------ replay

TEST(FuzzReplay, ReplaysEveryTargetAndInput) {
  const auto stats = fuzz::ReplayCorpus(LW_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->targets, fuzz::AllTargets().size());
  EXPECT_GE(stats->inputs, 30u) << "corpus looks truncated";
}

TEST(FuzzReplay, MissingRootIsAnError) {
  const auto stats = fuzz::ReplayCorpus("definitely/not/a/corpus");
  EXPECT_FALSE(stats.ok());
}

TEST(FuzzReplay, UnknownSubdirectoryIsAnError) {
  // A stray directory means someone added a target without wiring it into
  // AllTargets() (or typo'd a corpus move) — fail loudly, don't skip.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "lw_fuzz_replay_test_unknown";
  fs::remove_all(root);
  for (const fuzz::Target& t : fuzz::AllTargets()) {
    fs::create_directories(root / t.name);
    std::ofstream(root / t.name / "seed.bin", std::ios::binary) << "x";
  }
  fs::create_directories(root / "no_such_target");
  std::ofstream(root / "no_such_target" / "seed.bin", std::ios::binary)
      << "x";
  const auto stats = fuzz::ReplayCorpus(root.string());
  EXPECT_FALSE(stats.ok());
  fs::remove_all(root);
}

TEST(FuzzReplay, MissingTargetCorpusIsAnError) {
  // Every target must have at least one input, or its decoder silently
  // loses regression coverage.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "lw_fuzz_replay_test_missing";
  fs::remove_all(root);
  const auto& targets = fuzz::AllTargets();
  for (std::size_t i = 0; i + 1 < targets.size(); ++i) {
    fs::create_directories(root / targets[i].name);
    std::ofstream(root / targets[i].name / "seed.bin", std::ios::binary)
        << "x";
  }
  const auto stats = fuzz::ReplayCorpus(root.string());
  EXPECT_FALSE(stats.ok());
  fs::remove_all(root);
}

// ------------------------------------------- what the regression inputs pin
// Each assertion documents the pre-fix behavior the input used to trigger.

TEST(FuzzRegressions, JsonHugeExponentIsRejectedNotInfinity) {
  // Pre-fix: 1e999 parsed to +inf, canonical Write emitted "null", and the
  // write/parse fixpoint check in FuzzJson aborted.
  const auto v = json::Parse(ReadCorpusText("json/regression-huge-exponent.json"));
  EXPECT_FALSE(v.ok());
  const auto neg =
      json::Parse(ReadCorpusText("json/regression-neg-huge-exponent.json"));
  EXPECT_FALSE(neg.ok());
}

TEST(FuzzRegressions, JsonLoneSurrogatesAreRejected) {
  EXPECT_FALSE(
      json::Parse(ReadCorpusText("json/regression-lone-surrogate.json")).ok());
  EXPECT_FALSE(
      json::Parse(ReadCorpusText("json/regression-low-surrogate.json")).ok());
}

TEST(FuzzRegressions, JsonMaxDepthSeedIsAcceptedDeeperIsNot) {
  const auto ok = json::Parse(ReadCorpusText("json/seed-max-depth.json"));
  EXPECT_TRUE(ok.ok()) << "exact kMaxDepth nesting must stay parseable";
  EXPECT_FALSE(
      json::Parse(ReadCorpusText("json/regression-deep-nesting.json")).ok());
}

TEST(FuzzRegressions, JsonNulByteInStringRoundTrips) {
  const auto v = json::Parse(ReadCorpusText("json/regression-nul-in-string.json"));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const std::string once = json::Write(*v);
  const auto again = json::Parse(once);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *v);
}

net::Frame FrameFromCorpus(const std::string& rel) {
  // zltp corpus format (FuzzZltp): byte 0 selects the type, rest is payload.
  const Bytes raw = ReadCorpusFile(rel);
  net::Frame f;
  EXPECT_FALSE(raw.empty());
  f.type = static_cast<std::uint8_t>(1 + raw[0] % 5);
  f.payload.assign(raw.begin() + 1, raw.end());
  return f;
}

TEST(FuzzRegressions, ZltpTrailingGarbageIsRejected) {
  EXPECT_FALSE(
      zltp::DecodeServerHello(
          FrameFromCorpus("zltp/regression-serverhello-trailing.bin"))
          .ok());
  EXPECT_FALSE(
      zltp::DecodeClientHello(
          FrameFromCorpus("zltp/regression-clienthello-trailing.bin"))
          .ok());
}

TEST(FuzzRegressions, ZltpServerHelloFieldRangesAreEnforced) {
  // Pre-fix: a 17-byte keyword seed and domain_bits 41 decoded fine and
  // poisoned the client's universe/DPF config.
  EXPECT_FALSE(zltp::DecodeServerHello(
                   FrameFromCorpus("zltp/regression-serverhello-seed17.bin"))
                   .ok());
  EXPECT_FALSE(
      zltp::DecodeServerHello(
          FrameFromCorpus("zltp/regression-serverhello-domainbits41.bin"))
          .ok());
}

TEST(FuzzRegressions, DpfKeyRangeAndTrailingChecks) {
  EXPECT_FALSE(
      dpf::DpfKey::Deserialize(ReadCorpusFile("dpf/regression-domainbits0.bin"))
          .ok());
  EXPECT_FALSE(
      dpf::DpfKey::Deserialize(ReadCorpusFile("dpf/regression-domainbits41.bin"))
          .ok());
  EXPECT_FALSE(
      dpf::DpfKey::Deserialize(ReadCorpusFile("dpf/regression-trailing-byte.bin"))
          .ok());
  EXPECT_FALSE(
      dpf::DpfKey::Deserialize(ReadCorpusFile("dpf/regression-cwbits4.bin"))
          .ok());
  const auto good = dpf::DpfKey::Deserialize(
      ReadCorpusFile("dpf/seed-key-d2.bin"));
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  const auto sub = dpf::SubtreeKey::Deserialize(
      ReadCorpusFile("dpf/seed-subtree-d1.bin"));
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
}

}  // namespace
}  // namespace lw
