// Two-party distributed point functions (DPFs): the tree construction of
// Boyle–Gilboa–Ishai ("Function Secret Sharing: Improvements and
// Extensions", CCS'16) with early termination and single-bit outputs.
//
// A DPF splits the point function f_alpha (f_alpha(alpha)=1, 0 elsewhere,
// over domain {0,...,2^d - 1}) into two keys. Each key alone reveals nothing
// about alpha, yet the two parties' evaluations XOR to f_alpha at every
// point. This is exactly what ZLTP's two-server PIR mode needs (paper §2.2):
// the client sends one key to each non-colluding server; each server XORs
// together the records whose evaluation bit is 1; the XOR of the two answers
// is the record at alpha.
//
// Early termination: the tree stops kLeafBlockBits = 7 levels above the bit
// leaves. It has nu = TreeLevels(d) = max(d - 7, 0) levels; level i consumes
// bit i of the evaluation point (least-significant first). Each of the 2^nu
// leaf seeds s_p, with control bit t_p, becomes a block of 2^(d - nu) <= 128
// share bits
//
//     y_p = Convert(s_p) XOR t_p * CW_out,
//
// where Convert is fixed-key AES-MMO under a third public key
// (crypto::DpfPrg::ConvertBatch). Bit j of y_p is the share at the point
// x = p + (j << nu), so leaf p still sits at array position p, and shard s
// of a SplitForShards still holds the residue class x = s mod 2^top_bits.
//
// Key size: KeySize(d) = 2 + 16 + 17 * nu + 16 bytes, Θ(λ·(d − 7)) with
// λ = 128: one 17-byte correction word per tree level plus the 16-byte
// CW_out. Full-domain evaluation costs 2^(nu+1) tree AES calls, 2^nu convert
// calls and one 64-leaf x 128-bit transpose per 64 leaves: at d = 22 that is
// ~98k AES calls against the ~8.4M of a tree expanded to 1-bit leaves. This
// is the "DPF evaluation" half of the paper's per-request server compute;
// the module also implements the §5.2 front-end/data-server split where the
// top of the tree is evaluated once and sub-tree roots are shipped to
// shards.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/secret.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw::dpf {

inline constexpr std::size_t kSeedSize = 16;
inline constexpr int kMaxDomainBits = 40;
inline constexpr int kLambdaBits = 128;  // PRG seed length (security param)
// log2 of the bits one leaf seed turns into (the 128-bit Convert output).
inline constexpr int kLeafBlockBits = 7;

// Tree levels of a 2^domain_bits-point DPF: max(domain_bits - 7, 0).
constexpr int TreeLevels(int domain_bits) {
  return domain_bits > kLeafBlockBits ? domain_bits - kLeafBlockBits : 0;
}

// Serialized DpfKey size: party + domain_bits + root seed + TreeLevels(d)
// correction words of 17 bytes + CW_out. The one size formula; the
// communication accounting (pir::QueryUploadBytes) calls it.
constexpr std::size_t KeySize(int domain_bits) {
  return 2 + kSeedSize +
         static_cast<std::size_t>(TreeLevels(domain_bits)) * (kSeedSize + 1) +
         kSeedSize;
}

// Per-level correction word: a seed plus one control-bit correction per side.
// One correction word alone is secret-correlated with alpha (it is the XOR
// of the two parties' off-path seeds); treat it like key material.
struct CorrectionWord {
  LW_SECRET std::uint8_t seed[kSeedSize];
  std::uint8_t t_left;   // 0 or 1
  std::uint8_t t_right;  // 0 or 1
};

// One party's share of the DPF. Wire format: party (1 B), domain_bits
// (1 B), root seed (16 B), TreeLevels(d) correction words (16-byte seed +
// 1 byte packing t_left | t_right << 1), CW_out (16 B).
struct DpfKey {
  std::uint8_t party = 0;        // 0 or 1
  std::uint8_t domain_bits = 0;  // d; domain size is 2^d
  LW_SECRET std::uint8_t root_seed[kSeedSize] = {};
  std::vector<CorrectionWord> correction_words;  // TreeLevels(d) entries
  // Output correction: Convert(s0) XOR Convert(s1) XOR e_(alpha >> nu).
  LW_SECRET std::uint8_t cw_out[kSeedSize] = {};

  std::size_t SerializedSize() const { return KeySize(domain_bits); }
  Bytes Serialize() const;
  static Result<DpfKey> Deserialize(ByteSpan data);

  bool operator==(const DpfKey& other) const;
};

struct KeyPair {
  DpfKey key0;
  DpfKey key1;
};

// Generates the two shares of f_alpha over a 2^domain_bits domain.
// alpha must be < 2^domain_bits; 1 <= domain_bits <= kMaxDomainBits.
// alpha is the queried index — THE secret the whole protocol protects.
KeyPair Generate(LW_SECRET std::uint64_t alpha, int domain_bits);

// Evaluates this party's share bit at a single point x.
std::uint8_t EvalPoint(const DpfKey& key, std::uint64_t x);

// Packed bit vector: bit i of the evaluation lives at
// word[i >> 6] >> (i & 63) & 1.
using BitVector = std::vector<std::uint64_t>;

inline std::uint8_t GetBit(const BitVector& bits, std::uint64_t i) {
  return static_cast<std::uint8_t>((bits[i >> 6] >> (i & 63)) & 1);
}

// Full-domain evaluation: all 2^d share bits. The tree expands breadth-first
// in one buffer (two AES batch calls per level), then every 64 leaves are
// converted and transposed into whole words of the result.
BitVector EvalFull(const DpfKey& key);

// The leaf stage of every full-domain evaluation: for 64 leaves r, computes
// y_r = Convert(seeds[r]) XOR ts[r] * cw_out and transposes, so that bit r
// of out[j] is bit j of y_r. `seeds` (64 * 16 bytes) is overwritten with
// the Convert outputs. Branch-free and free of secret-dependent addresses;
// tools/ctcheck times it against fixed and random leaf seeds.
void ConvertLeafGroup(LW_SECRET std::uint8_t* seeds, const std::uint8_t* ts,
                      LW_SECRET const std::uint8_t* cw_out,
                      std::uint64_t out[2 * 64]);

// ------------------------------------------------------------------------
// Distributed evaluation (paper §5.2, "Distributing DPF evaluation").
//
// The front-end expands the top `top_bits` levels of the tree once and sends
// each of the 2^top_bits data servers its sub-tree root; each data server
// then pays only the cost of a DPF evaluation over the smaller
// 2^(d - top_bits) domain.
// ------------------------------------------------------------------------

// Wire format: party (1 B), domain_bits d' (1 B), root control bit t (1 B),
// seed (16 B), TreeLevels(d') correction words (17 B each), CW_out (16 B),
// and, only when d' < 7, leaf_offset (1 B) and leaf_stride_bits (1 B).
struct SubtreeKey {
  std::uint8_t party = 0;
  std::uint8_t domain_bits = 0;  // d': this key covers 2^d' points
  LW_SECRET std::uint8_t seed[kSeedSize] = {};
  std::uint8_t t = 0;  // control bit at the sub-tree root
  std::vector<CorrectionWord> correction_words;  // TreeLevels(d') entries
  LW_SECRET std::uint8_t cw_out[kSeedSize] = {};
  // A split past the tree levels (d' < 7) hands out a leaf seed, whose
  // block this key shares with other shards: point j of this key is bit
  // leaf_offset + (j << leaf_stride_bits) of the leaf's block. Both are
  // public, derived from the shard index; 0 when d' >= 7.
  std::uint8_t leaf_offset = 0;
  std::uint8_t leaf_stride_bits = 0;

  std::size_t SerializedSize() const;
  Bytes Serialize() const;
  static Result<SubtreeKey> Deserialize(ByteSpan data);
};

// Splits a key into 2^top_bits sub-tree keys. Because the tree consumes
// evaluation-point bits LSB-first, shard s covers the residue class
// { x : x mod 2^top_bits == s }, and leaf j of shard s is the point
// x = s + (j << top_bits). Requires 0 <= top_bits <= domain_bits; splits
// deeper than the tree (top_bits > TreeLevels(d)) share leaf seeds.
std::vector<SubtreeKey> SplitForShards(const DpfKey& key, int top_bits);

// Evaluates all 2^domain_bits points under a sub-tree root.
BitVector EvalSubtree(const SubtreeKey& key);

}  // namespace lw::dpf
