// Inner-loop kernels for the control-matrix hot paths.
//
// Every per-cycle cost in the server and the clients bottoms out in one of
// four loop shapes over a contiguous column of n Cycle stamps: a max-merge
// of one column into another, a masked select-fill (Theorem 2's column
// rewrite), a gather of indices where two columns differ (delta diffing),
// and the read-condition scan. They are collected here, written against raw
// base pointers over the flat column-major storage so the compiler can
// auto-vectorize them (no aliasing through this->, no per-iteration index
// arithmetic, trivially countable trip counts), and shared by FMatrix,
// GroupMatrix, DeltaCodec::DiffColumns and ControlView (whose
// ReadConditionScan runs the scan over dense and group columns).
// kernels.cc is compiled with vectorization-friendly flags (see
// src/matrix/CMakeLists.txt).

#ifndef BCC_MATRIX_KERNELS_H_
#define BCC_MATRIX_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"

namespace bcc {

/// dst[i] = value for i in [0, n).
void KernelColumnFill(Cycle* dst, Cycle value, uint32_t n);

/// dst[i] = src[i] for i in [0, n). dst and src must not overlap.
void KernelColumnCopy(Cycle* dst, const Cycle* src, uint32_t n);

/// dst[i] = max(dst[i], src[i]) for i in [0, n). dst and src must not
/// overlap (merging a column into itself is a no-op the caller can skip).
void KernelColumnMaxMerge(Cycle* dst, const Cycle* src, uint32_t n);

/// The Theorem 2 column rewrite: dst[i] = mask[i] ? stamp : dep[i].
/// mask entries are 0/1; dst may alias dep (the select reads before it
/// writes element-wise) but not mask.
void KernelColumnSelectFill(Cycle* dst, const uint8_t* mask, const Cycle* dep, Cycle stamp,
                            uint32_t n);

/// Appends to `out` (capacity >= n) every index i in [0, n) with
/// a[i] != b[i], ascending; returns how many were written.
uint32_t KernelColumnDiffIndices(const Cycle* a, const Cycle* b, uint32_t n, ObjectId* out);

/// Returned by KernelReadConditionScan when every read passes.
inline constexpr size_t kReadConditionPass = static_cast<size_t>(-1);

/// The read-condition scan against one control column with the column base
/// pointer hoisted out of the loop: returns the index of the FIRST read
/// record with column[reads[k].object] >= reads[k].cycle (the early exit —
/// the caller needs that record for abort attribution), or
/// kReadConditionPass when the condition holds for all `count` reads.
size_t KernelReadConditionScan(const Cycle* column, const ReadRecord* reads, size_t count);

}  // namespace bcc

#endif  // BCC_MATRIX_KERNELS_H_
