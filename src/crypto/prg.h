// Fixed-key AES PRGs used by the DPF tree construction.
//
// G(s) -> (s_L, t_L, s_R, t_R): each 16-byte seed expands into a left and a
// right 16-byte child seed plus one control bit per side. Expansion is
// fixed-key AES-128 in Matyas–Meyer–Oseas mode with two distinct public keys
// (one per side); the child's low bit becomes the control bit and is cleared
// from the seed. Fixed-key AES-MMO is the standard high-throughput choice for
// FSS implementations (it is correlation-robust under the ideal-cipher
// heuristic), and is what makes the per-query linear scan in the paper's
// §5.1 microbenchmark feasible.
//
// Convert(s) turns a tree leaf's seed into 128 output bits (the early
// termination of Boyle–Gilboa–Ishai, CCS'16): AES-MMO under a third public
// key, distinct from the two expansion keys.
#pragma once

#include <cstdint>

#include "crypto/aes128.h"
#include "util/bytes.h"

namespace lw::crypto {

inline constexpr std::size_t kPrgSeedSize = 16;

class DpfPrg {
 public:
  DpfPrg();

  // Expands n seeds: left[i] / right[i] receive the child seeds with control
  // bits already cleared; the bits land in t_left/t_right (one byte each,
  // value 0 or 1). Buffers are n*16 bytes. `left` may alias `seeds` (the
  // right children are computed first), so a level can expand in place;
  // `right` must not overlap `seeds`.
  void ExpandBatch(const std::uint8_t* seeds, std::size_t n,
                   std::uint8_t* left, std::uint8_t* right,
                   std::uint8_t* t_left, std::uint8_t* t_right) const;

  // Single-seed convenience wrapper.
  void Expand(const std::uint8_t seed[kPrgSeedSize],
              std::uint8_t left[kPrgSeedSize],
              std::uint8_t right[kPrgSeedSize], std::uint8_t* t_left,
              std::uint8_t* t_right) const;

  // out[i] = Convert(seeds[i]) for n seeds; `out` may alias `seeds`.
  void ConvertBatch(const std::uint8_t* seeds, std::size_t n,
                    std::uint8_t* out) const;

 private:
  Aes128 aes_left_;
  Aes128 aes_right_;
  Aes128 aes_convert_;
};

// Process-wide PRG instance (the keys are fixed public constants, so one
// instance serves every DPF in the process).
const DpfPrg& SharedDpfPrg();

}  // namespace lw::crypto
