// Wire-format accounting and encoding for the broadcast control information.
//
// Section 4.1 derives the fraction of each broadcast cycle spent on control
// information:
//   F-Matrix:            n*TS / (n*TS + OBJ)   per object slot (column of n
//                        TS-bit stamps follows each object)
//   R-Matrix/Datacycle:  TS / (TS + OBJ)       (one stamp per object)
//   F-Matrix-No:         0                     (cost ignored by fiat)
// Appendix D, Theorem 8: no compression can beat Omega(n^2) bits per cycle
// for the full matrix in the worst case; Section 3.2.1 sketches delta
// transmission as future work — implemented here as DeltaCodec.

#ifndef BCC_MATRIX_WIRE_H_
#define BCC_MATRIX_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "common/statusor.h"
#include "matrix/control_info.h"
#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"

namespace bcc {

/// Geometry of one broadcast cycle for a given algorithm.
struct BroadcastGeometry {
  uint64_t object_bits;        ///< payload bits per object
  uint64_t control_bits;       ///< control bits per object slot
  uint64_t slot_bits;          ///< object_bits + control_bits
  uint64_t cycle_bits;         ///< n * slot_bits
  double control_fraction;     ///< control share of the cycle
};

/// Computes the cycle geometry. `num_groups` is the group-matrix column
/// count: n for F-Matrix, 1 for R-Matrix/Datacycle; F-Matrix-No forces the
/// control share to zero. For the grouped spectrum, pass Algorithm::kFMatrix
/// with the desired num_groups.
BroadcastGeometry ComputeGeometry(Algorithm algorithm, uint32_t num_objects,
                                  uint64_t object_bits, unsigned ts_bits,
                                  uint32_t num_groups = 0);

/// Encodes a control column (or the MC vector) into TS-bit residues.
std::vector<uint32_t> EncodeStamps(std::span<const Cycle> stamps, const CycleStampCodec& codec);

/// Decodes residues back to absolute cycles anchored at `current`.
std::vector<Cycle> DecodeStamps(std::span<const uint32_t> residues, const CycleStampCodec& codec,
                                Cycle current);

/// Packs a control column into the on-air bitstream: exactly
/// stamps.size() * codec.bits() bits, zero-padded to whole bytes.
std::vector<uint8_t> PackStamps(std::span<const Cycle> stamps, const CycleStampCodec& codec);

/// Unpacks `count` stamps and decodes them anchored at `current`.
/// The buffer must be exactly the PackStamps framing: OutOfRange when it is
/// too small, InvalidArgument when it carries trailing bytes or nonzero
/// padding bits — wire-format corruption is rejected, not silently ignored.
StatusOr<std::vector<Cycle>> UnpackStamps(std::span<const uint8_t> bytes, size_t count,
                                          const CycleStampCodec& codec, Cycle current);

/// Bits of the standard full-matrix control broadcast for one cycle: n
/// columns of n TS-bit stamps (the Section 4.1 layout).
uint64_t FullMatrixControlBits(uint32_t num_objects, unsigned ts_bits);

/// Delta transmission (Section 3.2.1 future work): encodes only entries that
/// changed relative to the previous cycle's matrix.
class DeltaCodec {
 public:
  /// One changed entry.
  struct Entry {
    ObjectId row;
    ObjectId col;
    uint32_t residue;
  };

  /// Changed entries between consecutive cycle snapshots, by full O(n^2)
  /// rescan. Kept as the test oracle for DiffColumns; production callers with
  /// a dirty list (FMatrix::EnableDirtyTracking) should use DiffColumns.
  static std::vector<Entry> Diff(const FMatrix& prev, const FMatrix& cur,
                                 const CycleStampCodec& codec);

  /// Diff restricted to `touched_columns` — O(n * |touched|) instead of
  /// O(n^2). Correct whenever `touched_columns` covers every column that
  /// differs between prev and cur (ApplyCommit only rewrites WS columns, so
  /// the FMatrix dirty list satisfies this). Duplicate and unsorted column
  /// ids are fine; output entries are emitted in ascending (col, row) order,
  /// identical to Diff's.
  static std::vector<Entry> DiffColumns(const FMatrix& prev, const FMatrix& cur,
                                        std::span<const ObjectId> touched_columns,
                                        const CycleStampCodec& codec);

  /// Sparse-to-sparse variant: entries (and order) are identical to the dense
  /// DiffColumns on the materialized matrices, but each touched column costs
  /// O(nnz) via a merge walk — with a pointer-equality fast path for columns
  /// whose payloads are shared between prev and cur (unchanged columns cost
  /// O(1)).
  static std::vector<Entry> DiffColumns(const SparseFMatrix& prev, const SparseFMatrix& cur,
                                        std::span<const ObjectId> touched_columns,
                                        const CycleStampCodec& codec);

  /// Applies a diff on top of `base` (decoding residues at `current`).
  static void Apply(FMatrix* base, std::span<const Entry> entries, const CycleStampCodec& codec,
                    Cycle current);

  /// Sparse variant: one copy-on-write column rebuild per touched column
  /// (entries are grouped by column, as Pack/Diff emit them), value-identical
  /// to the dense Apply including duplicate-entry last-wins semantics.
  static void Apply(SparseFMatrix* base, std::span<const Entry> entries,
                    const CycleStampCodec& codec, Cycle current);

  /// Wire size of a diff: a count header (32 bits) plus, per entry, row and
  /// column indices (ceil(log2 n) bits each) and the TS-bit stamp.
  static uint64_t EncodedBits(size_t num_entries, uint32_t num_objects, unsigned ts_bits);

  /// Packs a diff into the on-air bitstream with exactly the EncodedBits
  /// framing (32-bit count, then per entry row, column, residue), zero-padded
  /// to whole bytes. Requires num_entries <= 2^32 - 1 and indices < n.
  static std::vector<uint8_t> Pack(std::span<const Entry> entries, uint32_t num_objects,
                                   const CycleStampCodec& codec);

  /// Inverse of Pack. Strict framing like UnpackStamps: OutOfRange when the
  /// buffer is too small, InvalidArgument on trailing bytes, nonzero padding,
  /// a count above n^2, or an out-of-range index — wire corruption that slips
  /// past the frame CRC is still rejected here.
  static StatusOr<std::vector<Entry>> Unpack(std::span<const uint8_t> bytes, uint32_t num_objects,
                                             const CycleStampCodec& codec);
};

/// Packs a full matrix into the on-air bitstream: n^2 TS-bit residues,
/// column-major and contiguous (no per-column padding), zero-padded to whole
/// bytes — exactly FullMatrixControlBits(n, ts) data bits. The sparse
/// overload produces byte-identical output (the on-air format stays dense so
/// frames, and therefore seeded loss patterns, are bit-identical across
/// representations; the sparse saving is in server memory and maintenance,
/// and in the delta/sparse accounting paths).
std::vector<uint8_t> PackMatrix(const FMatrix& matrix, const CycleStampCodec& codec);
std::vector<uint8_t> PackMatrix(const SparseFMatrix& matrix, const CycleStampCodec& codec);

/// Inverse of PackMatrix, decoding every residue anchored at `current`, with
/// the same strict framing rules as UnpackStamps.
StatusOr<FMatrix> UnpackMatrix(std::span<const uint8_t> bytes, uint32_t num_objects,
                               const CycleStampCodec& codec, Cycle current);

}  // namespace bcc

#endif  // BCC_MATRIX_WIRE_H_
