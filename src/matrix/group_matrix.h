// Group matrix: the n x g spectrum between F-Matrix and the reduced vector
// (Section 3.2.2). Objects are partitioned into g groups; the matrix stores
//   MC(i, s) = max_{j in s} C(i, j)
// so only g columns are broadcast per object row. g = n (singleton groups)
// is exactly F-Matrix; g = 1 collapses to the Datacycle/R-Matrix vector.

#ifndef BCC_MATRIX_GROUP_MATRIX_H_
#define BCC_MATRIX_GROUP_MATRIX_H_

#include <span>
#include <vector>

#include "common/statusor.h"
#include "history/object_id.h"
#include "matrix/control_info.h"
#include "matrix/f_matrix.h"

namespace bcc {

/// A partition of the object space [0, n) into g groups.
class ObjectPartition {
 public:
  /// Round-robin-free contiguous partition: object i belongs to group
  /// i * g / n (balanced block partition).
  static ObjectPartition Blocks(uint32_t num_objects, uint32_t num_groups);

  /// Explicit mapping object -> group; groups must be dense [0, g).
  static StatusOr<ObjectPartition> FromMapping(std::vector<uint32_t> group_of);

  uint32_t num_objects() const { return static_cast<uint32_t>(group_of_.size()); }
  uint32_t num_groups() const { return num_groups_; }
  uint32_t GroupOf(ObjectId ob) const { return group_of_[ob]; }

 private:
  ObjectPartition(std::vector<uint32_t> group_of, uint32_t num_groups)
      : group_of_(std::move(group_of)), num_groups_(num_groups) {}

  std::vector<uint32_t> group_of_;
  uint32_t num_groups_;
};

/// The n x g control matrix, derived per definition from the server's full
/// matrix at each cycle snapshot (the reduction saves *broadcast* bits; the
/// server still maintains C exactly).
class GroupMatrix {
 public:
  GroupMatrix(const ObjectPartition& partition, const FMatrix& full);

  uint32_t num_objects() const { return n_; }
  uint32_t num_groups() const { return g_; }
  const ObjectPartition& partition() const { return partition_; }

  /// MC(i, s).
  Cycle At(ObjectId i, uint32_t group) const { return data_[static_cast<size_t>(group) * n_ + i]; }

  /// Group column s: MC(0..n-1, s), contiguous. The read condition for
  /// ob_j scans column group(j) (ControlView::ReadConditionScan).
  std::span<const Cycle> Column(uint32_t group) const {
    return {data_.data() + static_cast<size_t>(group) * n_, n_};
  }

 private:
  uint32_t n_, g_;
  ObjectPartition partition_;
  std::vector<Cycle> data_;  // column-major by group
};

}  // namespace bcc

#endif  // BCC_MATRIX_GROUP_MATRIX_H_
