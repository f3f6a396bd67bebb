#include "matrix/control_view.h"

#include <algorithm>

#include "matrix/kernels.h"

namespace bcc {

uint32_t ControlView::num_objects() const {
  if (dense_ != nullptr) return dense_->num_objects();
  if (sparse_ != nullptr) return sparse_->num_objects();
  if (grouped_ != nullptr) return grouped_->num_objects();
  return 0;
}

size_t ControlView::ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j) const {
  if (sparse_ != nullptr) return sparse_->ReadConditionScan(reads, j);
  // Dense and grouped columns are contiguous: one vectorized kernel scan.
  const Cycle* column = dense_ != nullptr
                            ? dense_->Column(j).data()
                            : grouped_->Column(grouped_->partition().GroupOf(j)).data();
  return KernelReadConditionScan(column, reads.data(), reads.size());
}

std::span<const Cycle> ControlView::Column(ObjectId j, std::vector<Cycle>& scratch) const {
  if (dense_ != nullptr) return dense_->Column(j);
  if (grouped_ != nullptr) return grouped_->Column(grouped_->partition().GroupOf(j));
  sparse_->MaterializeColumn(j, scratch);
  return scratch;
}

bool operator==(const ControlView& a, const ControlView& b) {
  // Same-representation pairs use their own comparisons: page sharing makes
  // the dense one cheap, payload sharing the sparse one.
  if (a.dense_ != nullptr && b.dense_ != nullptr) return *a.dense_ == *b.dense_;
  if (a.sparse_ != nullptr && b.sparse_ != nullptr) return *a.sparse_ == *b.sparse_;
  const uint32_t n = a.num_objects();
  if (n != b.num_objects()) return false;
  std::vector<Cycle> scratch_a, scratch_b;
  for (ObjectId j = 0; j < n; ++j) {
    if (!std::ranges::equal(a.Column(j, scratch_a), b.Column(j, scratch_b))) return false;
  }
  return true;
}

}  // namespace bcc
