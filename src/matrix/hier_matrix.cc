#include "matrix/hier_matrix.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "matrix/kernels.h"

namespace bcc {

namespace {

unsigned IndexBits(uint32_t count) {
  return count > 1 ? static_cast<unsigned>(std::bit_width(count - 1)) : 0u;
}

}  // namespace

HierMatrix::HierMatrix(uint32_t num_objects, HierMatrixOptions options)
    : opts_(options), exact_(num_objects) {
  opts_.min_groups = std::max(1u, std::min(opts_.min_groups, num_objects == 0 ? 1u : num_objects));
  opts_.max_groups =
      std::max(opts_.min_groups, std::min(opts_.max_groups, num_objects == 0 ? 1u : num_objects));
  const uint32_t g = std::clamp(opts_.initial_groups, opts_.min_groups, opts_.max_groups);

  // Balanced block partition, same shape as ObjectPartition::Blocks.
  std::vector<std::vector<ObjectId>> members(g);
  for (ObjectId i = 0; i < num_objects; ++i) {
    members[static_cast<uint32_t>(static_cast<uint64_t>(i) * g / num_objects)].push_back(i);
  }
  refined_.assign(num_objects, 0);
  last_used_.assign(num_objects, 0);
  pending_mask_.assign(num_objects, 0);
  InstallPartition(std::move(members));
  pending_mapping_bits_ = 0;  // the initial mapping is not a broadcast update
}

void HierMatrix::InstallPartition(std::vector<std::vector<ObjectId>> members) {
  // Drop empty groups so ids stay dense.
  std::erase_if(members, [](const std::vector<ObjectId>& m) { return m.empty(); });
  members_ = std::move(members);
  const uint32_t g = num_groups();
  group_of_.assign(exact_.num_objects(), 0);
  uint64_t moved = 0;
  for (uint32_t s = 0; s < g; ++s) {
    for (ObjectId ob : members_[s]) {
      group_of_[ob] = s;
      ++moved;
    }
  }
  group_cols_.assign(g, SparseColumnData{});
  group_dirty_.assign(g, 1);
  group_spurious_.assign(g, 0);
  // Mapping update on the air: every object's new group id.
  pending_mapping_bits_ += moved * IndexBits(g);
}

void HierMatrix::ApplyCommit(std::span<const ObjectId> read_set,
                             std::span<const ObjectId> write_set, Cycle commit_cycle) {
  exact_.ApplyCommit(read_set, write_set, commit_cycle);
  for (ObjectId w : write_set) group_dirty_[group_of_[w]] = 1;
}

void HierMatrix::ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle) {
  for (const CommitSets& c : commits) ApplyCommit(c.read_set, c.write_set, commit_cycle);
}

void HierMatrix::EnsureGroup(uint32_t s) {
  if (!group_dirty_[s]) return;
  group_dirty_[s] = 0;
  ++stats_.group_rebuilds;

  // MC(i, s) = max_{j in s} C(i, j). With per-column floors f_j, the
  // aggregate floor is F = max f_j and MC(i, s) = max(F, explicit maxima at
  // row i) — every implicit value is <= F. Commits share one payload across
  // their whole write set, so deduping by payload pointer collapses most of
  // the member scan.
  Cycle floor = 0;
  std::vector<const SparseColumnData*> unique;
  unique.reserve(members_[s].size());
  for (ObjectId j : members_[s]) {
    const SparseColumnData* col = &exact_.Column(j);
    floor = std::max(floor, col->floor);
    if (std::find(unique.begin(), unique.end(), col) == unique.end()) unique.push_back(col);
  }

  rebuild_scratch_.clear();
  for (const SparseColumnData* col : unique) {
    for (const SparseColumnData::Entry& e : col->entries) {
      if (e.value > floor) rebuild_scratch_.push_back(e);
    }
  }
  std::sort(rebuild_scratch_.begin(), rebuild_scratch_.end(),
            [](const SparseColumnData::Entry& a, const SparseColumnData::Entry& b) {
              return a.row < b.row;
            });
  SparseColumnData& data = group_cols_[s];
  data.floor = floor;
  data.entries.clear();
  for (size_t k = 0; k < rebuild_scratch_.size();) {
    Cycle value = rebuild_scratch_[k].value;
    const ObjectId row = rebuild_scratch_[k].row;
    while (++k < rebuild_scratch_.size() && rebuild_scratch_[k].row == row) {
      value = std::max(value, rebuild_scratch_[k].value);
    }
    data.entries.push_back({row, value});
  }
}

Cycle HierMatrix::EffectiveAt(ObjectId i, ObjectId j) {
  if (refined_[j]) return exact_.At(i, j);
  const uint32_t s = group_of_[j];
  EnsureGroup(s);
  return group_cols_[s].At(i);
}

size_t HierMatrix::ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j,
                                     Cycle current) {
  if (refined_[j]) {
    last_used_[j] = current;
    return exact_.ReadConditionScan(reads, j);
  }
  const uint32_t s = group_of_[j];
  EnsureGroup(s);
  const SparseColumnData& col = group_cols_[s];
  for (size_t k = 0; k < reads.size(); ++k) {
    if (col.At(reads[k].object) >= reads[k].cycle) {
      // The coarse view aborts this read. If the exact matrix would have
      // accepted it, the abort is spurious — charge the group and schedule
      // the column for refinement at the next cycle boundary.
      if (exact_.ReadConditionScan(reads, j) == kReadConditionPass) {
        ++stats_.spurious_aborts;
        ++group_spurious_[s];
        QueueRefine(j);
      }
      return k;
    }
  }
  return kReadConditionPass;
}

void HierMatrix::QueueRefine(ObjectId j) {
  if (pending_mask_[j] || refined_[j]) return;
  pending_mask_[j] = 1;
  pending_refine_.push_back(j);
}

void HierMatrix::EndOfCycle(Cycle cycle, uint64_t control_conflict_aborts) {
  // 1. Promote the cycle's spurious-abort columns to exact (bounded).
  for (ObjectId j : pending_refine_) {
    pending_mask_[j] = 0;
    if (refined_[j]) continue;
    if (opts_.refine_limit != 0 && refined_list_.size() >= opts_.refine_limit) break;
    refined_[j] = 1;
    last_used_[j] = cycle;
    refined_list_.push_back(j);
    ++stats_.refinements;
    pending_mapping_bits_ += IndexBits(exact_.num_objects());
  }
  for (ObjectId j : pending_refine_) pending_mask_[j] = 0;  // unpromoted leftovers
  pending_refine_.clear();

  // 2. Demote refined columns nothing has consulted lately.
  if (opts_.coarsen_idle_cycles != 0) {
    for (size_t k = 0; k < refined_list_.size();) {
      const ObjectId j = refined_list_[k];
      if (cycle >= last_used_[j] && cycle - last_used_[j] >= opts_.coarsen_idle_cycles) {
        refined_[j] = 0;
        refined_list_[k] = refined_list_.back();
        refined_list_.pop_back();
        ++stats_.coarsenings;
        pending_mapping_bits_ += IndexBits(exact_.num_objects());
      } else {
        ++k;
      }
    }
  }

  // 3. Adaptive partition pass, gated on the abort breakdown having moved.
  if (opts_.regroup_period != 0 && cycle - last_regroup_cycle_ >= opts_.regroup_period) {
    last_regroup_cycle_ = cycle;
    if (control_conflict_aborts > regroup_abort_watermark_) RegroupPass();
    regroup_abort_watermark_ = control_conflict_aborts;
    std::fill(group_spurious_.begin(), group_spurious_.end(), 0);
  }
}

void HierMatrix::RegroupPass() {
  const uint32_t g = num_groups();
  std::vector<std::vector<ObjectId>> next;
  next.reserve(g + g / 2);
  uint64_t splits = 0, merges = 0;
  uint32_t projected = g;

  for (uint32_t s = 0; s < g; ++s) {
    const bool hot =
        group_spurious_[s] >= opts_.split_threshold && members_[s].size() >= 2;
    if (hot && projected < opts_.max_groups) {
      // Split the sorted member range in half: conflicts concentrate, each
      // half gets its own aggregate.
      const size_t mid = members_[s].size() / 2;
      next.emplace_back(members_[s].begin(), members_[s].begin() + static_cast<ptrdiff_t>(mid));
      next.emplace_back(members_[s].begin() + static_cast<ptrdiff_t>(mid), members_[s].end());
      ++splits;
      ++projected;
    } else if (s + 1 < g && projected > opts_.min_groups && group_spurious_[s] == 0 &&
               group_spurious_[s + 1] == 0) {
      // Merge the quiet adjacent pair: one aggregate is precise enough.
      std::vector<ObjectId> merged;
      merged.reserve(members_[s].size() + members_[s + 1].size());
      std::merge(members_[s].begin(), members_[s].end(), members_[s + 1].begin(),
                 members_[s + 1].end(), std::back_inserter(merged));
      next.push_back(std::move(merged));
      ++s;  // consumed the pair
      ++merges;
      --projected;
    } else {
      next.push_back(members_[s]);
    }
  }

  if (splits == 0 && merges == 0) return;
  stats_.group_splits += splits;
  stats_.group_merges += merges;
  ++stats_.regroups;
  InstallPartition(std::move(next));
}

uint64_t HierMatrix::ControlBits(unsigned ts_bits) {
  const unsigned n_bits = IndexBits(exact_.num_objects());
  const unsigned g_bits = IndexBits(num_groups());
  uint64_t bits = 32;  // group-count header
  for (uint32_t s = 0; s < num_groups(); ++s) {
    EnsureGroup(s);
    const SparseColumnData& col = group_cols_[s];
    if (col.floor == 0 && col.entries.empty()) continue;
    bits += g_bits + ts_bits + 32 + col.entries.size() * (n_bits + ts_bits);
  }
  for (ObjectId j : refined_list_) {
    bits += n_bits + ts_bits + 32 + exact_.ColumnNnz(j) * (n_bits + ts_bits);
  }
  bits += pending_mapping_bits_;
  pending_mapping_bits_ = 0;
  return bits;
}

}  // namespace bcc
