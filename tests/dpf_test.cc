// DPF tests: correctness over full domains, point/full-eval agreement,
// sharded (distributed) evaluation, serialization, and key-privacy
// structure. Sweeps cover domain sizes 1..24 bits, on both sides of the
// early-termination threshold (7 bits) and of the 64-leaf transpose group
// (13 bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <utility>

#include "dpf/dpf.h"
#include "util/hex.h"
#include "util/rand.h"
#include "util/thread_pool.h"

namespace lw::dpf {
namespace {

// XOR of both parties' bits at x must be the point-function value.
void ExpectPointFunction(const KeyPair& pair, std::uint64_t alpha,
                         std::uint64_t domain) {
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint8_t v =
        EvalPoint(pair.key0, x) ^ EvalPoint(pair.key1, x);
    EXPECT_EQ(v, x == alpha ? 1 : 0) << "x=" << x << " alpha=" << alpha;
  }
}

TEST(Dpf, TinyDomainExhaustive) {
  // Every alpha in a 3-bit domain, every point checked.
  for (std::uint64_t alpha = 0; alpha < 8; ++alpha) {
    ExpectPointFunction(Generate(alpha, 3), alpha, 8);
  }
}

TEST(Dpf, SingleBitDomain) {
  for (std::uint64_t alpha = 0; alpha < 2; ++alpha) {
    ExpectPointFunction(Generate(alpha, 1), alpha, 2);
  }
}

class DpfDomainTest : public ::testing::TestWithParam<int> {};

TEST_P(DpfDomainTest, FullEvalXorIsPointFunction) {
  const int d = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d) * 7919);
  const std::uint64_t alpha = rng.UniformInt(domain);

  const KeyPair pair = Generate(alpha, d);
  const BitVector b0 = EvalFull(pair.key0);
  const BitVector b1 = EvalFull(pair.key1);
  ASSERT_EQ(b0.size(), (domain + 63) / 64);

  std::uint64_t ones = 0;
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint8_t v = GetBit(b0, x) ^ GetBit(b1, x);
    if (v) {
      EXPECT_EQ(x, alpha);
      ++ones;
    }
  }
  EXPECT_EQ(ones, 1u);
}

TEST_P(DpfDomainTest, EvalPointMatchesEvalFull) {
  const int d = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d) * 104729);
  const std::uint64_t alpha = rng.UniformInt(domain);
  const KeyPair pair = Generate(alpha, d);
  const BitVector full = EvalFull(pair.key0);
  // Sample points (all points for small domains).
  const std::uint64_t step = domain <= 256 ? 1 : domain / 128;
  for (std::uint64_t x = 0; x < domain; x += step) {
    EXPECT_EQ(EvalPoint(pair.key0, x), GetBit(full, x)) << "x=" << x;
  }
  EXPECT_EQ(EvalPoint(pair.key0, alpha), GetBit(full, alpha));
}

TEST_P(DpfDomainTest, SingleKeyLooksBalanced) {
  // One party's share alone should be a pseudorandom bit vector: roughly
  // half ones, regardless of alpha. (A structural privacy smoke test.)
  const int d = GetParam();
  if (d < 8) return;  // too small for a meaningful balance check
  const std::uint64_t domain = std::uint64_t{1} << d;
  const KeyPair pair = Generate(/*alpha=*/0, d);
  const BitVector b0 = EvalFull(pair.key0);
  std::uint64_t ones = 0;
  for (std::uint64_t x = 0; x < domain; ++x) ones += GetBit(b0, x);
  EXPECT_GT(ones, domain * 40 / 100);
  EXPECT_LT(ones, domain * 60 / 100);
}

INSTANTIATE_TEST_SUITE_P(Domains, DpfDomainTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10, 12, 14));

TEST(Dpf, AlphaAtDomainEdges) {
  const int d = 10;
  const std::uint64_t domain = std::uint64_t{1} << d;
  for (std::uint64_t alpha : {std::uint64_t{0}, domain - 1, domain / 2}) {
    const KeyPair pair = Generate(alpha, d);
    const BitVector b0 = EvalFull(pair.key0);
    const BitVector b1 = EvalFull(pair.key1);
    for (std::uint64_t x = 0; x < domain; ++x) {
      EXPECT_EQ(GetBit(b0, x) ^ GetBit(b1, x), x == alpha ? 1 : 0);
    }
  }
}

TEST(Dpf, FreshKeysDiffer) {
  const KeyPair a = Generate(5, 8);
  const KeyPair b = Generate(5, 8);
  // Same alpha, fresh randomness: serialized keys must differ.
  EXPECT_NE(a.key0.Serialize(), b.key0.Serialize());
}

TEST(Dpf, KeySizeIndependentOfAlpha) {
  // Key size must leak nothing about alpha (paper §5.1).
  const auto size_for = [](std::uint64_t alpha) {
    return Generate(alpha, 22).key0.Serialize().size();
  };
  const std::size_t s = size_for(0);
  EXPECT_EQ(s, size_for(123456));
  EXPECT_EQ(s, size_for((1u << 22) - 1));
  // 2 bytes header + 16-byte seed + (d - 7) * 17 bytes + 16-byte CW_out.
  EXPECT_EQ(s, 2 + 16 + 15 * 17 + 16);
}

TEST(Dpf, KeySizeFormula) {
  EXPECT_EQ(KeySize(22), 289u);
  // Early termination drops 7 correction words of 17 bytes and adds one
  // 16-byte output correction word: 103 bytes less than the full-depth
  // format, 2 + 16 + 17d bytes, once the tree has levels to drop.
  for (int d = 7; d <= kMaxDomainBits; ++d) {
    const std::size_t full_depth = 2 + 16 + 17 * static_cast<std::size_t>(d);
    EXPECT_EQ(KeySize(d), full_depth - 103) << "d=" << d;
  }
  for (int d = 1; d <= 24; ++d) {
    EXPECT_EQ(Generate(0, d).key0.SerializedSize(), KeySize(d)) << "d=" << d;
    EXPECT_EQ(Generate(0, d).key1.Serialize().size(), KeySize(d));
  }
}

TEST(Dpf, SerializeDeserializeRoundTrip) {
  const KeyPair pair = Generate(99, 12);
  for (const DpfKey* key : {&pair.key0, &pair.key1}) {
    const Bytes wire = key->Serialize();
    EXPECT_EQ(wire.size(), key->SerializedSize());
    auto parsed = DpfKey::Deserialize(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == *key);
  }
}

TEST(Dpf, DeserializedKeyEvaluatesIdentically) {
  const KeyPair pair = Generate(777, 11);
  const Bytes wire = pair.key1.Serialize();
  const DpfKey parsed = DpfKey::Deserialize(wire).value();
  const BitVector original = EvalFull(pair.key1);
  const BitVector reparsed = EvalFull(parsed);
  EXPECT_EQ(original, reparsed);
}

TEST(Dpf, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DpfKey::Deserialize(Bytes{}).ok());
  EXPECT_FALSE(DpfKey::Deserialize(Bytes(5, 0xab)).ok());
  // Valid prefix but truncated correction words.
  Bytes wire = Generate(3, 8).key0.Serialize();
  wire.resize(wire.size() - 4);
  EXPECT_FALSE(DpfKey::Deserialize(wire).ok());
  // Trailing garbage.
  Bytes wire2 = Generate(3, 8).key0.Serialize();
  wire2.push_back(0);
  EXPECT_FALSE(DpfKey::Deserialize(wire2).ok());
  // Bad party byte.
  Bytes wire3 = Generate(3, 8).key0.Serialize();
  wire3[0] = 9;
  EXPECT_FALSE(DpfKey::Deserialize(wire3).ok());
}

TEST(Dpf, DeserializeRejectsOutOfRangeDomainBits) {
  // Pre-fix, domain_bits outside [1, kMaxDomainBits] deserialized fine and
  // blew up later: 0 made EvalFull return an empty vector others indexed
  // into, 41+ asked for a 2^41-bit allocation from attacker-chosen input.
  // party 0, domain_bits 0, root seed, CW_out.
  const Bytes zero_bits(2 + 2 * kSeedSize, 0);
  EXPECT_FALSE(DpfKey::Deserialize(zero_bits).ok()) << "domain_bits 0";

  Bytes too_big;
  too_big.push_back(0);   // party
  too_big.push_back(41);  // domain_bits > kMaxDomainBits
  too_big.resize(too_big.size() + kSeedSize);              // root seed
  too_big.resize(too_big.size() + 34 * (kSeedSize + 1));   // 41 - 7 CWs
  too_big.resize(too_big.size() + kSeedSize);              // CW_out
  EXPECT_FALSE(DpfKey::Deserialize(too_big).ok()) << "domain_bits 41";
}

TEST(Dpf, DeserializeRejectsBadCorrectionWordBits) {
  // The per-level t-bit pair packs into 2 bits; anything above 3 means the
  // bytes were not produced by Serialize().
  Bytes wire = Generate(3, 8).key0.Serialize();  // one tree level
  wire[2 + kSeedSize + kSeedSize] = 4;  // that CW's packed bits
  EXPECT_FALSE(DpfKey::Deserialize(wire).ok());
}

TEST(Dpf, DeserializeRejectsFullDepthFormat) {
  // Party 0's share of alpha = 77 at d = 8 in the full-depth format (8
  // correction words, no CW_out, 154 bytes): the early-termination format
  // reads one correction word and CW_out from it and must refuse the
  // trailing bytes.
  const std::string old_key =
      "000838c85bd2acb3560ed78e3f1a6815276b"
      "aef8fbc30e8030fb66410b8dfe0b9e1702"
      "042af97d36aed539fb066d67bdb05e0a00"
      "0218e08ecc362df148f0dbf421a5cc8301"
      "f2ff994b637869e35437307e5007447501"
      "58aa163f8925f421dc8a93214a4daaf702"
      "c2e0cb2559171ed629d4d888633d5f4e02"
      "d6eda25145fb3f867c2d93986164968d00"
      "523008c4e59099f261bdf6dc0b0419e400";
  const auto bytes = HexDecode(old_key);
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), 2 + 16 + 8 * 17u);
  EXPECT_FALSE(DpfKey::Deserialize(*bytes).ok());
}

TEST(Dpf, EvalFullXorIsPointFunctionAtEveryDomainSize) {
  // Both sides of the 7-bit early-termination threshold and of the 64-leaf
  // transpose group (d = 13), with alpha at both domain edges and inside.
  Rng rng(0x5eed);
  for (int d = 1; d <= 24; ++d) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    for (const std::uint64_t alpha :
         {std::uint64_t{0}, domain - 1, rng.UniformInt(domain)}) {
      const KeyPair pair = Generate(alpha, d);
      const BitVector b0 = EvalFull(pair.key0);
      const BitVector b1 = EvalFull(pair.key1);
      ASSERT_EQ(b0.size(), (domain + 63) / 64) << "d=" << d;
      ASSERT_EQ(b1.size(), b0.size());
      std::uint64_t ones = 0;
      for (std::size_t w = 0; w < b0.size(); ++w) {
        const std::uint64_t v = b0[w] ^ b1[w];
        ones += static_cast<std::uint64_t>(std::popcount(v));
        if (w == alpha / 64) {
          EXPECT_EQ(v, std::uint64_t{1} << (alpha % 64))
              << "d=" << d << " alpha=" << alpha;
        }
      }
      EXPECT_EQ(ones, 1u) << "d=" << d << " alpha=" << alpha;
    }
  }
}

TEST(Dpf, EvalPointMatchesEvalFullAtEveryPoint) {
  for (int d = 1; d <= 12; ++d) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    Rng rng(static_cast<std::uint64_t>(d) * 65537);
    const KeyPair pair = Generate(rng.UniformInt(domain), d);
    for (const DpfKey* key : {&pair.key0, &pair.key1}) {
      const BitVector full = EvalFull(*key);
      for (std::uint64_t x = 0; x < domain; ++x) {
        ASSERT_EQ(EvalPoint(*key, x), GetBit(full, x))
            << "d=" << d << " x=" << x;
      }
    }
  }
}

TEST(Dpf, ConvertLeafGroupTransposesTheLeafBlocks) {
  // Bit r of out[j] is bit j of leaf r's block Convert(s_r) ^ t_r * CW_out;
  // a leaf with t = 0 and another with t = 1 and the same seed differ by
  // exactly CW_out.
  Rng rng(99);
  Bytes seeds(64 * kSeedSize);
  rng.Fill(seeds);
  std::memcpy(seeds.data() + kSeedSize, seeds.data(), kSeedSize);
  std::uint8_t ts[64];
  for (std::uint8_t& t : ts) t = static_cast<std::uint8_t>(rng.Next() & 1);
  ts[0] = 0;
  ts[1] = 1;
  std::uint8_t cw_out[kSeedSize];
  rng.Fill(MutableByteSpan(cw_out, kSeedSize));
  std::uint64_t out[128];
  ConvertLeafGroup(seeds.data(), ts, cw_out, out);
  for (int j = 0; j < 128; ++j) {
    const std::uint8_t cw_bit = (cw_out[j >> 3] >> (j & 7)) & 1;
    EXPECT_EQ(((out[j] >> 0) ^ (out[j] >> 1)) & 1, cw_bit) << "bit " << j;
    for (int r = 0; r < 64; ++r) {
      const std::uint8_t y =
          static_cast<std::uint8_t>(seeds[r * kSeedSize + (j >> 3)] ^
                                    (ts[r] ? cw_out[j >> 3] : 0));
      ASSERT_EQ((out[j] >> r) & 1, (y >> (j & 7)) & 1u)
          << "leaf " << r << " bit " << j;
    }
  }
}

TEST(Dpf, GenerateRejectsBadArguments) {
  EXPECT_THROW(Generate(0, 0), InvariantViolation);
  EXPECT_THROW(Generate(0, 99), InvariantViolation);
  EXPECT_THROW(Generate(1u << 8, 8), InvariantViolation);  // alpha too big
}

// ----------------------------------------------------- distributed eval

class DpfShardTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpfShardTest, ShardedEvalMatchesFullEval) {
  const auto [d, top_bits] = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d * 31 + top_bits));
  const std::uint64_t alpha = rng.UniformInt(domain);
  const KeyPair pair = Generate(alpha, d);

  for (const DpfKey* key : {&pair.key0, &pair.key1}) {
    const BitVector full = EvalFull(*key);
    const std::vector<SubtreeKey> shards = SplitForShards(*key, top_bits);
    ASSERT_EQ(shards.size(), std::uint64_t{1} << top_bits);

    // Shard s covers the residue class x ≡ s (mod #shards); its leaf j is
    // the point x = s + (j << top_bits).
    const std::uint64_t per_shard = domain >> top_bits;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const BitVector sub = EvalSubtree(shards[s]);
      for (std::uint64_t j = 0; j < per_shard; ++j) {
        EXPECT_EQ(GetBit(sub, j), GetBit(full, s + (j << top_bits)))
            << "shard " << s << " leaf " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Splits, DpfShardTest,
    ::testing::Values(std::tuple{8, 0}, std::tuple{8, 1}, std::tuple{8, 3},
                      std::tuple{8, 8}, std::tuple{12, 4},
                      std::tuple{14, 6}));

TEST(DpfShard, EverySplitReassemblesEvalFull) {
  // Includes the splits past the tree levels (top_bits > d - 7), whose
  // sub-keys share a leaf seed and pick bits out of its block.
  for (const int d : {1, 6, 7, 8, 9, 14}) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    Rng rng(static_cast<std::uint64_t>(d) * 7);
    const KeyPair pair = Generate(rng.UniformInt(domain), d);
    for (const DpfKey* key : {&pair.key0, &pair.key1}) {
      const BitVector full = EvalFull(*key);
      for (int top_bits = 0; top_bits <= d; ++top_bits) {
        const std::vector<SubtreeKey> shards = SplitForShards(*key, top_bits);
        ASSERT_EQ(shards.size(), std::uint64_t{1} << top_bits);
        BitVector joined(full.size(), 0);
        for (std::size_t s = 0; s < shards.size(); ++s) {
          ASSERT_EQ(shards[s].domain_bits, d - top_bits);
          const BitVector sub = EvalSubtree(shards[s]);
          for (std::uint64_t j = 0; j < domain >> top_bits; ++j) {
            const std::uint64_t x = s + (j << top_bits);
            joined[x >> 6] |= std::uint64_t{GetBit(sub, j)} << (x & 63);
          }
        }
        EXPECT_EQ(joined, full) << "d=" << d << " top_bits=" << top_bits;
      }
    }
  }
}

TEST(DpfShard, SubtreeKeyRejectsLeafPositionOutsideItsBlock) {
  const KeyPair pair = Generate(5, 8);
  // d' = 3 past the tree's one level: stride 2^4, offsets 0..15.
  const SubtreeKey sk = SplitForShards(pair.key0, 5)[31];
  ASSERT_EQ(sk.leaf_offset, 15);
  ASSERT_EQ(sk.leaf_stride_bits, 4);
  const Bytes wire = sk.Serialize();
  ASSERT_EQ(wire.size(), sk.SerializedSize());
  ASSERT_TRUE(SubtreeKey::Deserialize(wire).ok());
  Bytes bad_offset = wire;
  bad_offset[wire.size() - 2] = 16;
  EXPECT_FALSE(SubtreeKey::Deserialize(bad_offset).ok());
  Bytes bad_stride = wire;
  bad_stride[wire.size() - 1] = 5;  // 2^3 points * 2^5 > 128 bits
  EXPECT_FALSE(SubtreeKey::Deserialize(bad_stride).ok());
}

TEST(DpfShard, TwoPartyShardedStillPointFunction) {
  // Shard both parties' keys, evaluate shard-wise, and confirm the XOR is
  // still the point function (this is the §5.2 deployment path).
  const int d = 10, top = 3;
  const std::uint64_t alpha = 421;
  const KeyPair pair = Generate(alpha, d);
  const auto shards0 = SplitForShards(pair.key0, top);
  const auto shards1 = SplitForShards(pair.key1, top);
  const std::uint64_t per_shard = std::uint64_t{1} << (d - top);

  std::uint64_t ones = 0;
  for (std::size_t s = 0; s < shards0.size(); ++s) {
    const BitVector b0 = EvalSubtree(shards0[s]);
    const BitVector b1 = EvalSubtree(shards1[s]);
    for (std::uint64_t j = 0; j < per_shard; ++j) {
      const std::uint8_t v = GetBit(b0, j) ^ GetBit(b1, j);
      if (v) {
        EXPECT_EQ(s + (j << top), alpha);
        ++ones;
      }
    }
  }
  EXPECT_EQ(ones, 1u);
}

TEST(DpfShard, SubtreeKeySerializationRoundTrip) {
  const KeyPair pair = Generate(100, 10);
  const auto shards = SplitForShards(pair.key0, 4);
  for (const SubtreeKey& sk : shards) {
    const Bytes wire = sk.Serialize();
    EXPECT_EQ(wire.size(), sk.SerializedSize());
    auto parsed = SubtreeKey::Deserialize(wire);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(EvalSubtree(*parsed), EvalSubtree(sk));
  }
}

TEST(DpfShard, SubtreeKeySmallerThanFullKey) {
  // The per-shard key the front-end ships is smaller than the client's key:
  // that is the point of the §5.2 tree split.
  const KeyPair pair = Generate(7, 22);
  const auto shards = SplitForShards(pair.key0, 8);
  EXPECT_LT(shards[0].SerializedSize(), pair.key0.SerializedSize());
}

// ------------------------------------------------------- concurrent eval
//
// A server evaluates many keys at once, one per pool thread, and every
// call reuses its thread's scratch buffers. Evaluating on all threads of a
// pool must match the serial results bit for bit. Keys of the swept domain
// size alternate with keys of another size on the other side of the 7-bit
// early-termination threshold, so each thread's buffers hold a larger or
// smaller tree from its previous call. Swept over pool sizes x domain sizes.

class DpfParallelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The size interleaved with d: across the 7-bit threshold from d.
int OtherDomainBits(int d) { return d > 8 ? d - 6 : d + 6; }

TEST_P(DpfParallelTest, EvalFullParallelMatchesSerial) {
  const auto [threads, d] = GetParam();
  ThreadPool pool(threads);
  Rng rng(static_cast<std::uint64_t>(threads * 1000 + d));
  std::vector<DpfKey> keys;
  for (int i = 0; i < 4 * threads; ++i) {
    const int bits = i % 2 == 0 ? d : OtherDomainBits(d);
    KeyPair pair = Generate(rng.UniformInt(std::uint64_t{1} << bits), bits);
    keys.push_back(i % 4 < 2 ? std::move(pair.key0) : std::move(pair.key1));
  }
  std::vector<BitVector> serial;
  for (const DpfKey& key : keys) serial.push_back(EvalFull(key));
  std::vector<BitVector> parallel(keys.size());
  pool.ParallelFor(0, keys.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) parallel[i] = EvalFull(keys[i]);
  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i])
        << "threads=" << threads << " d=" << d << " key " << i;
  }
}

TEST_P(DpfParallelTest, EvalSubtreeParallelMatchesSerial) {
  const auto [threads, d] = GetParam();
  ThreadPool pool(threads);
  Rng rng(static_cast<std::uint64_t>(threads * 31 + d));
  const KeyPair pair = Generate(rng.UniformInt(std::uint64_t{1} << d), d);
  // A shallow split and a deep one; the deep one goes past the tree
  // levels (sub-keys sharing leaf seeds) for d = 1, 5 and 12.
  std::vector<SubtreeKey> subkeys;
  for (const DpfKey* key : {&pair.key0, &pair.key1}) {
    for (const int top_bits : {std::min(d, 2), std::min(d, 9)}) {
      for (SubtreeKey& sk : SplitForShards(*key, top_bits)) {
        subkeys.push_back(std::move(sk));
      }
    }
  }
  std::vector<BitVector> serial;
  for (const SubtreeKey& sk : subkeys) serial.push_back(EvalSubtree(sk));
  std::vector<BitVector> parallel(subkeys.size());
  pool.ParallelFor(0, subkeys.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) parallel[i] = EvalSubtree(subkeys[i]);
  });
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i])
        << "threads=" << threads << " d=" << d << " sub-key " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolsAndDomains, DpfParallelTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 8),
                                            ::testing::Values(1, 5, 12, 18)));

}  // namespace
}  // namespace lw::dpf
