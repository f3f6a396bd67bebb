// Modulo broadcast-cycle timestamps (Section 3.2.1 of the paper).
//
// The control matrix stores commit-cycle numbers. To bound the per-entry
// wire size, the paper stores cycle numbers modulo (max_cycles + 1), where
// max_cycles bounds the number of broadcast cycles any transaction may span,
// and compares them with windowed (modulo) arithmetic. With a `bits`-bit
// timestamp, max_cycles = 2^bits - 1.
//
// Decoding is anchored at the *current* cycle: an encoded stamp denotes the
// most recent absolute cycle <= current whose residue matches. Entries older
// than the window decode to a too-recent value; per the paper's protocol this
// can only cause spurious aborts (safe), never false acceptance — a property
// the test suite checks.

#ifndef BCC_COMMON_CYCLE_STAMP_H_
#define BCC_COMMON_CYCLE_STAMP_H_

#include <cstdint>

namespace bcc {

/// Absolute broadcast cycle number (cycle 0 = the imaginary cycle in which
/// the initial transaction t0 writes every object).
using Cycle = uint64_t;

/// Encodes/decodes absolute cycle numbers into `bits`-bit residues.
class CycleStampCodec {
 public:
  /// `bits` in [1, 32]; the representable window is 2^bits cycles.
  explicit CycleStampCodec(unsigned bits);

  unsigned bits() const { return bits_; }
  /// Number of distinct residues, i.e. max_cycles + 1.
  uint64_t modulus() const { return modulus_; }
  /// Maximum transaction span (in cycles) that decodes unambiguously.
  uint64_t max_cycles() const { return modulus_ - 1; }

  /// Absolute cycle -> wire residue.
  uint32_t Encode(Cycle absolute) const {
    return static_cast<uint32_t>(absolute & (modulus_ - 1));
  }

  /// Wire residue -> most recent absolute cycle <= `current` with that
  /// residue. Exact whenever current - absolute <= max_cycles().
  ///
  /// Safety invariant (regression-tested in cycle_stamp_test.cc): for every
  /// true stamp c <= current, Decode(Encode(c), current) >= c. Out-of-window
  /// stamps alias UPWARD — to c + k * modulus() for the largest k keeping the
  /// result <= current. Because every read condition accepts only when the
  /// control stamp is strictly BELOW a read cycle (FMatrix::ReadCondition,
  /// ReadOnlyTxnProtocol::CheckDatacycle and CheckRMatrix), overestimating a
  /// stamp can only flip accept -> abort (spurious abort), never abort ->
  /// accept.
  ///
  /// The clamp-to-0 branch below is unreachable from any Encode(c) with
  /// c <= current: the most recent matching candidate is c + k * modulus()
  /// >= c >= 0, never "before cycle 0". It fires only for residues no valid
  /// encode produced (possible while current < max_cycles(), where some
  /// residues denote no cycle at all) and maps them to cycle 0, the
  /// imaginary t0 write — i.e. well-formed broadcasts never take it.
  Cycle Decode(uint32_t residue, Cycle current) const;

 private:
  unsigned bits_;
  uint64_t modulus_;
};

}  // namespace bcc

#endif  // BCC_COMMON_CYCLE_STAMP_H_
