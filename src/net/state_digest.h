// End-state digest for the loopback bit-identity check: an FNV-1a 64 hash
// over (a) every object's final committed version, exactly as it round-trips
// through the object-page codec, and (b) every F-Matrix entry reduced to its
// ts-bit wire residue. The residue reduction is what makes the digest
// comparable across the server (absolute cycles) and a client (cycles
// reconstructed modulo 2^ts from the wire) — the two matrices are congruent
// mod 2^ts by construction, so at loss 0 their digests are equal iff the
// client reassembled every frame of every cycle bit-exactly.

#ifndef BCC_NET_STATE_DIGEST_H_
#define BCC_NET_STATE_DIGEST_H_

#include <cstdint>
#include <span>

#include "common/cycle_stamp.h"
#include "server/store.h"

namespace bcc {

inline constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnvPrime = 0x00000100000001B3ull;

inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Digest of the object values (server store / client receiver cache).
inline uint64_t DigestValues(std::span<const ObjectVersion> values, uint64_t hash = kFnvOffset) {
  for (const ObjectVersion& v : values) {
    hash = FnvMix(hash, v.value);
    hash = FnvMix(hash, v.writer);
    hash = FnvMix(hash, v.cycle);
  }
  return hash;
}

/// The same digest over the server's page-shared committed values.
inline uint64_t DigestValues(const ObjectValues& values, uint64_t hash = kFnvOffset) {
  for (uint32_t p = 0; p < values.num_pages(); ++p) hash = DigestValues(values.Page(p), hash);
  return hash;
}

/// Folds every matrix entry's ts-bit residue into the digest. Works for any
/// matrix type exposing num_objects() and At(i, j): a ControlView of any
/// representation, or an FMatrix / SparseFMatrix directly.
template <typename Matrix>
uint64_t DigestMatrixResidues(const Matrix& matrix, const CycleStampCodec& codec,
                              uint64_t hash = kFnvOffset) {
  const uint32_t n = matrix.num_objects();
  for (uint32_t j = 0; j < n; ++j) {
    for (uint32_t i = 0; i < n; ++i) {
      hash = FnvMix(hash, codec.Encode(matrix.At(i, j)));
    }
  }
  return hash;
}

}  // namespace bcc

#endif  // BCC_NET_STATE_DIGEST_H_
