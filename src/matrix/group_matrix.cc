#include "matrix/group_matrix.h"

#include <algorithm>

#include "common/format.h"
#include "matrix/kernels.h"

namespace bcc {

ObjectPartition ObjectPartition::Blocks(uint32_t num_objects, uint32_t num_groups) {
  num_groups = std::max(1u, std::min(num_groups, num_objects));
  std::vector<uint32_t> group_of(num_objects);
  for (uint32_t i = 0; i < num_objects; ++i) {
    group_of[i] = static_cast<uint32_t>((static_cast<uint64_t>(i) * num_groups) / num_objects);
  }
  return ObjectPartition(std::move(group_of), num_groups);
}

StatusOr<ObjectPartition> ObjectPartition::FromMapping(std::vector<uint32_t> group_of) {
  if (group_of.empty()) return Status::InvalidArgument("empty partition");
  const uint32_t g = *std::max_element(group_of.begin(), group_of.end()) + 1;
  std::vector<bool> seen(g, false);
  for (uint32_t x : group_of) seen[x] = true;
  for (uint32_t s = 0; s < g; ++s) {
    if (!seen[s]) {
      return Status::InvalidArgument(StrFormat("group %u has no objects", s));
    }
  }
  return ObjectPartition(std::move(group_of), g);
}

GroupMatrix::GroupMatrix(const ObjectPartition& partition, const FMatrix& full)
    : n_(full.num_objects()), g_(partition.num_groups()), partition_(partition) {
  data_.assign(static_cast<size_t>(n_) * g_, 0);
  for (ObjectId j = 0; j < n_; ++j) {
    const uint32_t s = partition_.GroupOf(j);
    Cycle* col = data_.data() + static_cast<size_t>(s) * n_;
    KernelColumnMaxMerge(col, full.Column(j).data(), n_);
  }
}

}  // namespace bcc
