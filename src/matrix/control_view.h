// ControlView: one read-only view of the control matrix C over any of its
// representations — a dense FMatrix, a SparseFMatrix, or an n x g
// GroupMatrix, whose column j is MC(., group(j)) (Section 3.2.2). How C is
// stored must not change a decision, frame or digest, so every consumer that
// only reads C is written once against this view, and the view is the only
// code that switches on the representation for them (DESIGN.md §4l).
// Kernels whose algorithms differ per representation (DiffColumns,
// DeltaCodec::Apply, CompactModulo, ApplyCommit) stay typed; their callers
// reach the viewed matrix through dense() / sparse().
//
// Non-owning and trivially copyable: the viewed matrix must outlive the
// view. A default-constructed view views nothing (num_objects() == 0); At,
// ReadConditionScan and Column require a viewed matrix.

#ifndef BCC_MATRIX_CONTROL_VIEW_H_
#define BCC_MATRIX_CONTROL_VIEW_H_

#include <concepts>
#include <memory>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"
#include "matrix/f_matrix.h"
#include "matrix/group_matrix.h"
#include "matrix/sparse_f_matrix.h"

namespace bcc {

/// The matrix types a ControlView can view.
template <typename Matrix>
concept ViewableMatrix = std::same_as<Matrix, FMatrix> || std::same_as<Matrix, SparseFMatrix> ||
                         std::same_as<Matrix, GroupMatrix>;

class ControlView {
 public:
  ControlView() = default;
  // Implicit: a matrix, or a raw or shared pointer to one (null views
  // nothing), converts to its view wherever a view is expected.
  // NOLINTBEGIN(google-explicit-constructor)
  ControlView(const FMatrix& matrix) : dense_(&matrix) {}
  ControlView(const SparseFMatrix& matrix) : sparse_(&matrix) {}
  ControlView(const GroupMatrix& matrix) : grouped_(&matrix) {}
  template <ViewableMatrix Matrix>
  ControlView(const Matrix* matrix)
      : ControlView(matrix == nullptr ? ControlView() : ControlView(*matrix)) {}
  template <ViewableMatrix Matrix>
  ControlView(const std::shared_ptr<const Matrix>& matrix) : ControlView(matrix.get()) {}
  // NOLINTEND(google-explicit-constructor)

  uint32_t num_objects() const;

  /// This view when it views at least one object, else `fallback`: how a
  /// consumer with a preferred control source (an override, the sparse
  /// form) falls back to the default one.
  ControlView Or(ControlView fallback) const { return num_objects() > 0 ? *this : fallback; }

  /// C(i, j); for a grouped matrix MC(i, group(j)).
  Cycle At(ObjectId i, ObjectId j) const {
    if (dense_ != nullptr) return dense_->At(i, j);
    if (sparse_ != nullptr) return sparse_->At(i, j);
    return grouped_->At(i, grouped_->partition().GroupOf(j));
  }

  /// Index of the FIRST read record with C(r.object, j) >= r.cycle (the
  /// record an abort is attributed to), or kReadConditionPass.
  size_t ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j) const;

  /// Column j as n contiguous entries: the stored column itself (dense, and
  /// the group column of a grouped matrix), or the sparse column
  /// materialized into `scratch`. Valid until `scratch` or the matrix
  /// changes.
  std::span<const Cycle> Column(ObjectId j, std::vector<Cycle>& scratch) const;

  /// The viewed matrix when it is dense / sparse, else nullptr: only for
  /// the kernels that stay per representation (see the file comment).
  const FMatrix* dense() const { return dense_; }
  const SparseFMatrix* sparse() const { return sparse_; }

  /// Value equality of the two viewed n x n matrices, across
  /// representations.
  friend bool operator==(const ControlView& a, const ControlView& b);

 private:
  // At most one is set.
  const FMatrix* dense_ = nullptr;
  const SparseFMatrix* sparse_ = nullptr;
  const GroupMatrix* grouped_ = nullptr;
};

}  // namespace bcc

#endif  // BCC_MATRIX_CONTROL_VIEW_H_
