#include "dpf/dpf.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "crypto/ct.h"
#include "crypto/prg.h"
#include "util/check.h"
#include "util/io.h"
#include "util/rand.h"

namespace lw::dpf {
namespace {

using crypto::SharedDpfPrg;

// Leaves per ConvertLeafGroup call: one 64-bit word of every block position.
constexpr std::size_t kGroup = 64;
constexpr std::size_t kBlockBits = std::size_t{1} << kLeafBlockBits;

// Conditionally XORs a 16-byte correction seed, branchlessly.
void MaskedXorSeed(std::uint8_t* dst, const std::uint8_t* src,
                   std::uint8_t flag) {
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(flag);
  lw::StoreLE64(dst, lw::LoadLE64(dst) ^ (lw::LoadLE64(src) & mask));
  lw::StoreLE64(dst + 8, lw::LoadLE64(dst + 8) ^ (lw::LoadLE64(src + 8) & mask));
}

Status CheckDomainBits(int domain_bits) {
  if (domain_bits < 1 || domain_bits > kMaxDomainBits) {
    return InvalidArgumentError("domain_bits out of range");
  }
  return Status::Ok();
}

// Serialization helpers shared by DpfKey and SubtreeKey.
void WriteCorrectionWords(Writer& w, const std::vector<CorrectionWord>& cws) {
  for (const CorrectionWord& cw : cws) {
    w.Raw(ByteSpan(cw.seed, kSeedSize));
    w.U8(static_cast<std::uint8_t>(cw.t_left | (cw.t_right << 1)));
  }
}

Status ReadSeed(Reader& r, std::uint8_t* out) {
  LW_ASSIGN_OR_RETURN(Bytes seed, r.Raw(kSeedSize));
  std::memcpy(out, seed.data(), kSeedSize);
  return Status::Ok();
}

Status ReadCorrectionWords(Reader& r, int count,
                           std::vector<CorrectionWord>& out) {
  out.resize(static_cast<std::size_t>(count));
  for (CorrectionWord& cw : out) {
    LW_RETURN_IF_ERROR(ReadSeed(r, cw.seed));
    LW_ASSIGN_OR_RETURN(const std::uint8_t bits, r.U8());
    if (bits > 3) return ProtocolError("invalid correction-word bits");
    cw.t_left = bits & 1;
    cw.t_right = (bits >> 1) & 1;
  }
  return Status::Ok();
}

// One round of the in-place 64x64 bit-matrix transpose, on both halves of
// `a` (rows a[0..63] and a[64..127]): swaps the J-bit sub-blocks off the
// diagonal. Runs are contiguous, so the compiler vectorizes the rounds
// with J >= 4.
template <int J>
void TransposeRound(std::uint64_t a[2 * kGroup], std::uint64_t m) {
  for (std::size_t base = 0; base < kGroup; base += 2 * J) {
    for (std::size_t k = base; k < base + J; ++k) {
      const std::uint64_t lo = ((a[k] >> J) ^ a[k + J]) & m;
      a[k] ^= lo << J;
      a[k + J] ^= lo;
      const std::uint64_t hi = ((a[kGroup + k] >> J) ^ a[kGroup + k + J]) & m;
      a[kGroup + k] ^= hi << J;
      a[kGroup + k + J] ^= hi;
    }
  }
}

// Transposes two 64x64 bit matrices in place, row r in a[r] and column c
// at bit c: afterwards bit r of a[c] is the old bit c of a[r]. Six rounds
// of masked block swaps over public indices (Hacker's Delight §7-3, in
// LSB-first bit order), so no address or branch depends on the bits.
void TransposeGroup(std::uint64_t a[2 * kGroup]) {
  TransposeRound<32>(a, 0x00000000ffffffffULL);
  TransposeRound<16>(a, 0x0000ffff0000ffffULL);
  TransposeRound<8>(a, 0x00ff00ff00ff00ffULL);
  TransposeRound<4>(a, 0x0f0f0f0f0f0f0f0fULL);
  TransposeRound<2>(a, 0x3333333333333333ULL);
  TransposeRound<1>(a, 0x5555555555555555ULL);
}

// ---------------------------------------------------------------------------
// Evaluation.
//
// Bit order: level i consumes bit i of the evaluation point (LSB first).
// A level is laid out as [all left children || all right children], so the
// PRG's batch output lands in its final position with no interleaving copy,
// and after `levels` levels leaf p sits at array position p (p's bit i chose
// the branch at level i, contributing 2^i to the position — exactly p).
// ---------------------------------------------------------------------------

// Evaluates 2^(levels + block_bits) points under one root: `levels` tree
// levels, then the leaf stage. Point p + (j << levels) (leaf p, j <
// 2^block_bits) is bit offset + (j << stride_bits) of leaf p's block;
// offset and stride_bits are nonzero only for a sub-key split past the tree
// (levels == 0). This is the per-request hot loop of a ZLTP server (§5.1's
// "DPF evaluation").
BitVector ExpandToLeafBits(LW_SECRET const std::uint8_t* root_seed,
                           std::uint8_t root_t,
                           LW_SECRET const CorrectionWord* cws, int levels,
                           int block_bits, LW_SECRET const std::uint8_t* cw_out,
                           std::size_t offset, int stride_bits) {
  const std::size_t leaves = std::size_t{1} << levels;
  // Small trees are padded to one whole group of zero seeds, so every
  // domain shares the leaf stage; padding bits are never read.
  const std::size_t rows = std::max(leaves, kGroup);
  // One seed buffer, expanded in place: the PRG writes the right children
  // first, then the left children over their parents. The buffers are
  // thread-local and reused across queries: per-call buffers measured
  // slower (0.41 against 0.29 ms per evaluation at d = 20 on one core).
  thread_local std::vector<std::uint8_t> seed_buf, t_buf, next_t_buf;
  if (seed_buf.size() < rows * kSeedSize) seed_buf.resize(rows * kSeedSize);
  if (t_buf.size() < rows) {
    t_buf.resize(rows);
    next_t_buf.resize(rows);
  }
  std::uint8_t* const seeds = seed_buf.data();
  std::uint8_t* ts = t_buf.data();
  std::uint8_t* next_ts = next_t_buf.data();
  std::memcpy(seeds, root_seed, kSeedSize);
  ts[0] = root_t;

  for (int level = 0; level < levels; ++level) {
    const std::size_t n = std::size_t{1} << level;
    std::uint8_t* const left = seeds;
    std::uint8_t* const right = left + n * kSeedSize;
    SharedDpfPrg().ExpandBatch(left, n, left, right, next_ts, next_ts + n);
    const CorrectionWord& cw = cws[level];
    const std::uint64_t cw_lo = lw::LoadLE64(cw.seed);
    const std::uint64_t cw_hi = lw::LoadLE64(cw.seed + 8);
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t mask = 0 - std::uint64_t{ts[j]};
      std::uint8_t* l = left + j * kSeedSize;
      std::uint8_t* r = right + j * kSeedSize;
      lw::StoreLE64(l, lw::LoadLE64(l) ^ (cw_lo & mask));
      lw::StoreLE64(l + 8, lw::LoadLE64(l + 8) ^ (cw_hi & mask));
      lw::StoreLE64(r, lw::LoadLE64(r) ^ (cw_lo & mask));
      lw::StoreLE64(r + 8, lw::LoadLE64(r + 8) ^ (cw_hi & mask));
      next_ts[j] = static_cast<std::uint8_t>(next_ts[j] ^ (ts[j] & cw.t_left));
      next_ts[n + j] =
          static_cast<std::uint8_t>(next_ts[n + j] ^ (ts[j] & cw.t_right));
    }
    std::swap(ts, next_ts);
  }
  std::memset(seeds + leaves * kSeedSize, 0, (rows - leaves) * kSeedSize);
  std::memset(ts + leaves, 0, rows - leaves);

  const std::size_t points = leaves << block_bits;
  BitVector out((points + 63) / 64, 0);
  std::uint64_t block[kBlockBits];
  for (std::size_t g = 0; g < rows / kGroup; ++g) {
    ConvertLeafGroup(seeds + g * kGroup * kSeedSize, ts + g * kGroup, cw_out,
                     block);
    if (levels >= 6) {
      // Block word j holds the points 64g + r + (j << levels), r < 64:
      // exactly output word g + (j << (levels - 6)).
      for (std::size_t j = 0; j < kBlockBits; ++j) {
        out[g + (j << (levels - 6))] = block[j];
      }
    } else {
      // Fewer than 64 leaves: each block word holds `leaves` valid bits,
      // the points (j << levels) + p, which never straddle a word.
      const std::uint64_t valid = (std::uint64_t{1} << leaves) - 1;
      for (std::size_t j = 0; j < (std::size_t{1} << block_bits); ++j) {
        const std::size_t x = j << levels;
        out[x >> 6] |= (block[offset + (j << stride_bits)] & valid)
                       << (x & 63);
      }
    }
  }
  return out;
}

// Small-scale expansion keeping seeds AND control bits (used by the
// front-end's top-of-tree split, where n stays tiny).
void ExpandKeepingSeeds(LW_SECRET Bytes& seeds, Bytes& ts,
                        LW_SECRET const CorrectionWord* cws, int levels) {
  for (int level = 0; level < levels; ++level) {
    const std::size_t n = ts.size();
    Bytes next_seeds(2 * n * kSeedSize);
    Bytes next_ts(2 * n);
    SharedDpfPrg().ExpandBatch(seeds.data(), n, next_seeds.data(),
                               next_seeds.data() + n * kSeedSize,
                               next_ts.data(), next_ts.data() + n);
    const CorrectionWord& cw = cws[level];
    for (std::size_t j = 0; j < n; ++j) {
      MaskedXorSeed(next_seeds.data() + j * kSeedSize, cw.seed, ts[j]);
      MaskedXorSeed(next_seeds.data() + (n + j) * kSeedSize, cw.seed, ts[j]);
      next_ts[j] = static_cast<std::uint8_t>(next_ts[j] ^ (ts[j] & cw.t_left));
      next_ts[n + j] =
          static_cast<std::uint8_t>(next_ts[n + j] ^ (ts[j] & cw.t_right));
    }
    seeds = std::move(next_seeds);
    ts = std::move(next_ts);
  }
}

}  // namespace

void ConvertLeafGroup(LW_SECRET std::uint8_t* seeds, const std::uint8_t* ts,
                      LW_SECRET const std::uint8_t* cw_out,
                      std::uint64_t out[2 * 64]) {
  SharedDpfPrg().ConvertBatch(seeds, kGroup, seeds);
  const std::uint64_t cw_lo = lw::LoadLE64(cw_out);
  const std::uint64_t cw_hi = lw::LoadLE64(cw_out + 8);
  // Rows first: out[r] / out[64 + r] take bits 0..63 / 64..127 of y_r.
  for (std::size_t r = 0; r < kGroup; ++r) {
    const std::uint64_t mask = 0 - std::uint64_t{ts[r]};
    out[r] = lw::LoadLE64(seeds + r * kSeedSize) ^ (cw_lo & mask);
    out[kGroup + r] = lw::LoadLE64(seeds + r * kSeedSize + 8) ^ (cw_hi & mask);
  }
  TransposeGroup(out);
}

// ----------------------------------------------------------- serialization

Bytes DpfKey::Serialize() const {
  Writer w;
  w.U8(party);
  w.U8(domain_bits);
  w.Raw(ByteSpan(root_seed, kSeedSize));
  WriteCorrectionWords(w, correction_words);
  w.Raw(ByteSpan(cw_out, kSeedSize));
  return std::move(w).Take();
}

Result<DpfKey> DpfKey::Deserialize(ByteSpan data) {
  Reader r(data);
  DpfKey key;
  LW_ASSIGN_OR_RETURN(key.party, r.U8());
  if (key.party > 1) return ProtocolError("DPF party must be 0 or 1");
  LW_ASSIGN_OR_RETURN(key.domain_bits, r.U8());
  LW_RETURN_IF_ERROR(CheckDomainBits(key.domain_bits));
  LW_RETURN_IF_ERROR(ReadSeed(r, key.root_seed));
  LW_RETURN_IF_ERROR(ReadCorrectionWords(r, TreeLevels(key.domain_bits),
                                         key.correction_words));
  LW_RETURN_IF_ERROR(ReadSeed(r, key.cw_out));
  LW_RETURN_IF_ERROR(r.ExpectEnd());
  return key;
}

bool DpfKey::operator==(const DpfKey& other) const {
  if (party != other.party || domain_bits != other.domain_bits) return false;
  if (!crypto::ct::Eq(ByteSpan(root_seed, kSeedSize),
                      ByteSpan(other.root_seed, kSeedSize)) ||
      !crypto::ct::Eq(ByteSpan(cw_out, kSeedSize),
                      ByteSpan(other.cw_out, kSeedSize))) {
    return false;
  }
  if (correction_words.size() != other.correction_words.size()) return false;
  for (std::size_t i = 0; i < correction_words.size(); ++i) {
    const CorrectionWord& a = correction_words[i];
    const CorrectionWord& b = other.correction_words[i];
    if (!crypto::ct::Eq(ByteSpan(a.seed, kSeedSize),
                        ByteSpan(b.seed, kSeedSize)) ||
        a.t_left != b.t_left || a.t_right != b.t_right) {
      return false;
    }
  }
  return true;
}

std::size_t SubtreeKey::SerializedSize() const {
  return 3 + 2 * kSeedSize +
         static_cast<std::size_t>(TreeLevels(domain_bits)) * (kSeedSize + 1) +
         (domain_bits < kLeafBlockBits ? 2 : 0);
}

Bytes SubtreeKey::Serialize() const {
  Writer w;
  w.U8(party);
  w.U8(domain_bits);
  w.U8(t);
  w.Raw(ByteSpan(seed, kSeedSize));
  WriteCorrectionWords(w, correction_words);
  w.Raw(ByteSpan(cw_out, kSeedSize));
  if (domain_bits < kLeafBlockBits) {
    w.U8(leaf_offset);
    w.U8(leaf_stride_bits);
  }
  return std::move(w).Take();
}

Result<SubtreeKey> SubtreeKey::Deserialize(ByteSpan data) {
  Reader r(data);
  SubtreeKey key;
  LW_ASSIGN_OR_RETURN(key.party, r.U8());
  if (key.party > 1) return ProtocolError("DPF party must be 0 or 1");
  LW_ASSIGN_OR_RETURN(key.domain_bits, r.U8());
  if (key.domain_bits > kMaxDomainBits) {
    return ProtocolError("subtree domain_bits out of range");
  }
  LW_ASSIGN_OR_RETURN(key.t, r.U8());
  if (key.t > 1) return ProtocolError("control bit must be 0 or 1");
  LW_RETURN_IF_ERROR(ReadSeed(r, key.seed));
  LW_RETURN_IF_ERROR(ReadCorrectionWords(r, TreeLevels(key.domain_bits),
                                         key.correction_words));
  LW_RETURN_IF_ERROR(ReadSeed(r, key.cw_out));
  if (key.domain_bits < kLeafBlockBits) {
    LW_ASSIGN_OR_RETURN(key.leaf_offset, r.U8());
    LW_ASSIGN_OR_RETURN(key.leaf_stride_bits, r.U8());
    if (key.leaf_stride_bits > kLeafBlockBits - key.domain_bits ||
        key.leaf_offset >= (1u << key.leaf_stride_bits)) {
      return ProtocolError("subtree leaf position outside its block");
    }
  }
  LW_RETURN_IF_ERROR(r.ExpectEnd());
  return key;
}

// ------------------------------------------------------------- generation

KeyPair Generate(LW_SECRET std::uint64_t alpha, int domain_bits) {
  LW_CHECK_MSG(CheckDomainBits(domain_bits).ok(), "invalid domain_bits");
  LW_CHECK_MSG(alpha < (std::uint64_t{1} << domain_bits),
               "alpha outside domain");
  const int levels = TreeLevels(domain_bits);

  KeyPair pair;
  pair.key0.party = 0;
  pair.key1.party = 1;
  pair.key0.domain_bits = static_cast<std::uint8_t>(domain_bits);
  pair.key1.domain_bits = static_cast<std::uint8_t>(domain_bits);
  SecureRandomBytes(MutableByteSpan(pair.key0.root_seed, kSeedSize));
  SecureRandomBytes(MutableByteSpan(pair.key1.root_seed, kSeedSize));
  pair.key0.correction_words.resize(static_cast<std::size_t>(levels));
  pair.key1.correction_words.resize(static_cast<std::size_t>(levels));

  std::uint8_t s0[kSeedSize], s1[kSeedSize];
  std::memcpy(s0, pair.key0.root_seed, kSeedSize);
  std::memcpy(s1, pair.key1.root_seed, kSeedSize);
  std::uint8_t t0 = 0, t1 = 1;

  for (int level = 0; level < levels; ++level) {
    std::uint8_t l0[kSeedSize], r0[kSeedSize], l1[kSeedSize], r1[kSeedSize];
    std::uint8_t tl0, tr0, tl1, tr1;
    SharedDpfPrg().Expand(s0, l0, r0, &tl0, &tr0);
    SharedDpfPrg().Expand(s1, l1, r1, &tl1, &tr1);

    // Level i consumes bit i of alpha (LSB first; see ExpandToLeafBits).
    const std::uint8_t alpha_bit =
        static_cast<std::uint8_t>((alpha >> level) & 1);

    // The "lose" side (the branch alpha does NOT take) gets a correction
    // that makes the two parties' seeds collapse to equality off-path.
    const std::uint8_t* lose0 = alpha_bit ? l0 : r0;
    const std::uint8_t* lose1 = alpha_bit ? l1 : r1;

    CorrectionWord cw;
    for (std::size_t i = 0; i < kSeedSize; ++i) {
      cw.seed[i] = static_cast<std::uint8_t>(lose0[i] ^ lose1[i]);
    }
    cw.t_left = static_cast<std::uint8_t>(tl0 ^ tl1 ^ alpha_bit ^ 1);
    cw.t_right = static_cast<std::uint8_t>(tr0 ^ tr1 ^ alpha_bit);
    pair.key0.correction_words[static_cast<std::size_t>(level)] = cw;
    pair.key1.correction_words[static_cast<std::size_t>(level)] = cw;

    // Each party advances along the alpha path, applying the correction iff
    // its current control bit is set.
    const std::uint8_t* keep0 = alpha_bit ? r0 : l0;
    const std::uint8_t* keep1 = alpha_bit ? r1 : l1;
    const std::uint8_t keep_t0 = alpha_bit ? tr0 : tl0;
    const std::uint8_t keep_t1 = alpha_bit ? tr1 : tl1;
    const std::uint8_t cw_t_keep = alpha_bit ? cw.t_right : cw.t_left;

    std::uint8_t new_s0[kSeedSize], new_s1[kSeedSize];
    std::memcpy(new_s0, keep0, kSeedSize);
    std::memcpy(new_s1, keep1, kSeedSize);
    MaskedXorSeed(new_s0, cw.seed, t0);
    MaskedXorSeed(new_s1, cw.seed, t1);
    const std::uint8_t new_t0 =
        static_cast<std::uint8_t>(keep_t0 ^ (t0 & cw_t_keep));
    const std::uint8_t new_t1 =
        static_cast<std::uint8_t>(keep_t1 ^ (t1 & cw_t_keep));

    std::memcpy(s0, new_s0, kSeedSize);
    std::memcpy(s1, new_s1, kSeedSize);
    t0 = new_t0;
    t1 = new_t1;
  }

  // Output correction: at alpha's leaf t0 ^ t1 = 1, so the two blocks XOR
  // to Convert(s0) ^ Convert(s1) ^ CW_out = e_j with j = alpha >> levels;
  // off the path s0 = s1 and t0 = t1, and the blocks cancel. The one-hot
  // word is built with masks, never by indexing with j.
  std::uint8_t c0[kSeedSize], c1[kSeedSize];
  SharedDpfPrg().ConvertBatch(s0, 1, c0);
  SharedDpfPrg().ConvertBatch(s1, 1, c1);
  const std::uint64_t j = alpha >> levels;  // < 128
  const std::uint64_t bit = std::uint64_t{1} << (j & 63);
  const std::uint64_t in_hi = crypto::ct::EqMask(j >> 6, 1);
  const std::uint64_t e_lo = bit & ~in_hi;
  const std::uint64_t e_hi = bit & in_hi;
  lw::StoreLE64(pair.key0.cw_out,
                lw::LoadLE64(c0) ^ lw::LoadLE64(c1) ^ e_lo);
  lw::StoreLE64(pair.key0.cw_out + 8,
                lw::LoadLE64(c0 + 8) ^ lw::LoadLE64(c1 + 8) ^ e_hi);
  std::memcpy(pair.key1.cw_out, pair.key0.cw_out, kSeedSize);
  return pair;
}

// ------------------------------------------------------------- evaluation

std::uint8_t EvalPoint(const DpfKey& key, std::uint64_t x) {
  const int d = key.domain_bits;
  LW_CHECK_MSG(x < (std::uint64_t{1} << d), "x outside domain");
  const int levels = TreeLevels(d);

  std::uint8_t s[kSeedSize];
  std::memcpy(s, key.root_seed, kSeedSize);
  std::uint8_t t = key.party;

  for (int level = 0; level < levels; ++level) {
    std::uint8_t l[kSeedSize], r[kSeedSize];
    std::uint8_t tl, tr;
    SharedDpfPrg().Expand(s, l, r, &tl, &tr);
    const CorrectionWord& cw =
        key.correction_words[static_cast<std::size_t>(level)];
    const std::uint8_t bit = static_cast<std::uint8_t>((x >> level) & 1);
    const std::uint8_t* next = bit ? r : l;
    const std::uint8_t next_t_raw = bit ? tr : tl;
    const std::uint8_t cw_t = bit ? cw.t_right : cw.t_left;
    std::uint8_t new_s[kSeedSize];
    std::memcpy(new_s, next, kSeedSize);
    MaskedXorSeed(new_s, cw.seed, t);
    const std::uint8_t new_t =
        static_cast<std::uint8_t>(next_t_raw ^ (t & cw_t));
    std::memcpy(s, new_s, kSeedSize);
    t = new_t;
  }

  std::uint8_t y[kSeedSize];
  SharedDpfPrg().ConvertBatch(s, 1, y);
  MaskedXorSeed(y, key.cw_out, t);
  const std::uint64_t j = x >> levels;  // the point's position in the block
  return static_cast<std::uint8_t>((y[j >> 3] >> (j & 7)) & 1);
}

BitVector EvalFull(const DpfKey& key) {
  const int levels = TreeLevels(key.domain_bits);
  return ExpandToLeafBits(key.root_seed, key.party,
                          key.correction_words.data(), levels,
                          key.domain_bits - levels, key.cw_out, 0, 0);
}

std::vector<SubtreeKey> SplitForShards(const DpfKey& key, int top_bits) {
  LW_CHECK_MSG(top_bits >= 0 && top_bits <= key.domain_bits,
               "top_bits out of range");
  // Top bits past the tree's levels select bits inside a leaf's block:
  // shard s takes leaf s mod 2^levels at offset s >> levels.
  const int levels = std::min(top_bits, TreeLevels(key.domain_bits));
  Bytes seeds(kSeedSize);
  std::memcpy(seeds.data(), key.root_seed, kSeedSize);
  Bytes ts(1, key.party);
  ExpandKeepingSeeds(seeds, ts, key.correction_words.data(), levels);

  const std::size_t shards = std::size_t{1} << top_bits;
  const std::size_t node_mask = ts.size() - 1;
  const std::vector<CorrectionWord> tail(
      key.correction_words.begin() + levels, key.correction_words.end());

  std::vector<SubtreeKey> out(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t node = s & node_mask;
    out[s].party = key.party;
    out[s].domain_bits = static_cast<std::uint8_t>(key.domain_bits - top_bits);
    std::memcpy(out[s].seed, seeds.data() + node * kSeedSize, kSeedSize);
    out[s].t = ts[node];
    out[s].correction_words = tail;
    std::memcpy(out[s].cw_out, key.cw_out, kSeedSize);
    out[s].leaf_offset = static_cast<std::uint8_t>(s >> levels);
    out[s].leaf_stride_bits = static_cast<std::uint8_t>(top_bits - levels);
  }
  return out;
}

BitVector EvalSubtree(const SubtreeKey& key) {
  const int levels = TreeLevels(key.domain_bits);
  return ExpandToLeafBits(key.seed, key.t, key.correction_words.data(),
                          levels, key.domain_bits - levels, key.cw_out,
                          key.leaf_offset, key.leaf_stride_bits);
}

}  // namespace lw::dpf
