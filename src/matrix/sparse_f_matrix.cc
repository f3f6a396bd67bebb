#include "matrix/sparse_f_matrix.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_map>

#include "matrix/kernels.h"

namespace bcc {

namespace {

bool ColumnIsEmpty(const SparseColumnData& col) {
  return col.floor == 0 && col.entries.empty();
}

/// What a null column pointer reads as.
const SparseColumnData kEmptyColumn;

}  // namespace

struct SparseFMatrix::Payload : SparseColumnData {
  /// The creating matrix's table generation at creation.
  uint64_t gen = 0;
  /// Slots of the owner's live table pointing at it; the owner's thread only.
  uint32_t refs = 0;
  /// Index in the owner pool's `payloads`.
  uint32_t slot = 0;
};

struct SparseFMatrix::PayloadPool {
  /// A dropped payload and the retirement stamp from which no copy sees it.
  struct Retired {
    Payload* payload;
    uint64_t hidden_from;
  };

  /// The pool the owner's table borrowed payloads from when this one began.
  std::shared_ptr<const PayloadPool> borrowed;
  /// Every payload created here and not yet freed: live and retired.
  std::vector<Payload*> payloads;
  /// Dropped payloads by ascending stamp; the first retired_head are freed.
  std::vector<Retired> retired;
  size_t retired_head = 0;

  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  ~PayloadPool() {
    for (Payload* p : payloads) delete p;
  }

  void Free(Payload* p) {
    payloads.back()->slot = p->slot;
    payloads[p->slot] = payloads.back();
    payloads.pop_back();
    delete p;
  }

  /// Frees every retired payload no live copy of `table` can see.
  void Reclaim(const ColumnTable& table) {
    while (retired_head < retired.size() && table.Reclaimable(retired[retired_head].hidden_from)) {
      Free(retired[retired_head++].payload);
    }
    if (retired_head == retired.size()) {
      retired.clear();
      retired_head = 0;
    } else if (retired_head * 2 > retired.size()) {
      retired.erase(retired.begin(), retired.begin() + static_cast<ptrdiff_t>(retired_head));
      retired_head = 0;
    }
  }
};

Cycle SparseColumnData::At(ObjectId row) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), row,
      [](const Entry& e, ObjectId r) { return e.row < r; });
  if (it != entries.end() && it->row == row) return it->value;
  return floor;
}

const SparseColumnData& SparseFMatrix::Column(ObjectId j) const {
  const Payload* col = cols_[j];
  return col != nullptr ? *col : kEmptyColumn;
}

SparseFMatrix SparseFMatrix::Snapshot() const {
  SparseFMatrix snap(0);
  snap.cols_ = cols_;
  snap.pool_ = pool_;
  snap.nnz_ = nnz_;
  snap.nonempty_cols_ = nonempty_cols_;
  return snap;
}

uint32_t SparseFMatrix::ColumnPayloadRefs(ObjectId j) const {
  const Payload* col = cols_[j];
  return col != nullptr && cols_.Owns(col->gen) ? col->refs : 0;
}

size_t SparseFMatrix::retired_payloads() const {
  return pool_.owned ? pool_.pool->retired.size() - pool_.pool->retired_head : 0;
}

size_t SparseFMatrix::owned_payloads() const {
  return pool_.owned ? pool_.pool->payloads.size() : 0;
}

SparseFMatrix::Payload* SparseFMatrix::NewPayload() {
  if (!pool_.owned) {
    auto fresh = std::make_shared<PayloadPool>();
    fresh->borrowed = std::move(pool_.pool);
    pool_.pool = std::move(fresh);
    pool_.owned = true;
  }
  PayloadPool& pool = *pool_.pool;
  pool.Reclaim(cols_);
  auto* p = new Payload();
  p->gen = cols_.generation();
  p->slot = static_cast<uint32_t>(pool.payloads.size());
  pool.payloads.push_back(p);
  return p;
}

SparseFMatrix::Payload* SparseFMatrix::Seal(Payload* p) {
  if (!ColumnIsEmpty(*p)) return p;
  pool_.pool->Free(p);
  return nullptr;
}

void SparseFMatrix::Drop(Payload* p) {
  ++payloads_dropped_;
  // Created since the table was last copied: no other matrix can see it.
  if (p->gen == cols_.generation()) {
    pool_.pool->Free(p);
    return;
  }
  const uint64_t hidden_from = cols_.RetireStamp();
  if (cols_.Reclaimable(hidden_from)) {
    pool_.pool->Free(p);
  } else {
    pool_.pool->retired.push_back({p, hidden_from});
  }
}

void SparseFMatrix::MarkTouched(ObjectId j) {
  if (!track_dirty_) return;
  if (touched_mask_[j]) return;
  touched_mask_[j] = 1;
  touched_cols_.push_back(j);
}

void SparseFMatrix::Account(const SparseColumnData& cur, const SparseColumnData& next) {
  nnz_ += next.entries.size();
  nnz_ -= cur.entries.size();
  if (ColumnIsEmpty(cur) != ColumnIsEmpty(next)) {
    if (ColumnIsEmpty(next)) {
      --nonempty_cols_;
    } else {
      ++nonempty_cols_;
    }
  }
}

void SparseFMatrix::Install(ObjectId j, Payload* next) {
  Payload*& slot = cols_.Mutable(j);
  Payload* const cur = slot;
  Account(cur != nullptr ? *cur : kEmptyColumn, next != nullptr ? *next : kEmptyColumn);
  if (next != nullptr) ++next->refs;
  slot = next;
  if (cur != nullptr && cols_.Owns(cur->gen) && --cur->refs == 0) Drop(cur);
  MarkTouched(j);
}

void SparseFMatrix::MaterializeColumn(ObjectId j, std::vector<Cycle>& out) const {
  const SparseColumnData& col = Column(j);
  out.assign(num_objects(), col.floor);
  for (const SparseColumnData::Entry& e : col.entries) out[e.row] = e.value;
}

void SparseFMatrix::ApplyCommit(std::span<const ObjectId> read_set,
                                std::span<const ObjectId> write_set, Cycle commit_cycle) {
  if (write_set.empty()) return;

  // Dependency vector dep(i) = max_{k in RS} C(i, k), in sparse form: the
  // floor is the max of the read columns' floors, and an explicit entry
  // survives only where the row-wise max of explicit values exceeds that
  // floor (server-path columns keep entries >= their own floor, so the max
  // over floors and explicit row maxima is exactly max_k C(i, k)).
  Cycle dep_floor = 0;
  for (ObjectId k : read_set) dep_floor = std::max(dep_floor, Column(k).floor);

  merge_scratch_.clear();
  if (read_set.size() == 1) {
    const SparseColumnData& col = Column(read_set.front());
    for (const SparseColumnData::Entry& e : col.entries) {
      if (e.value > dep_floor) merge_scratch_.push_back(e);
    }
  } else if (!read_set.empty()) {
    // k-way merge by row over the read columns (k = |RS| is workload-sized,
    // so the linear cursor scan per output row is cheap).
    std::vector<MergeCursor>& cursors = cursor_scratch_;
    cursors.clear();
    for (ObjectId k : read_set) {
      const auto& entries = Column(k).entries;
      if (!entries.empty()) cursors.push_back({entries.data(), entries.data() + entries.size()});
    }
    while (!cursors.empty()) {
      ObjectId row = cursors.front().it->row;
      for (size_t c = 1; c < cursors.size(); ++c) row = std::min(row, cursors[c].it->row);
      Cycle value = 0;
      for (size_t c = 0; c < cursors.size();) {
        if (cursors[c].it->row == row) {
          value = std::max(value, cursors[c].it->value);
          if (++cursors[c].it == cursors[c].end) {
            cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(c));
            continue;
          }
        }
        ++c;
      }
      if (value > dep_floor) merge_scratch_.push_back({row, value});
    }
  }

  // One payload for every write-set column: dep with WS rows at commit_cycle.
  ws_scratch_.assign(write_set.begin(), write_set.end());
  std::sort(ws_scratch_.begin(), ws_scratch_.end());
  Payload* next = NewPayload();
  next->floor = dep_floor;
  next->entries.reserve(merge_scratch_.size() + ws_scratch_.size());
  size_t d = 0;
  for (ObjectId w : ws_scratch_) {
    while (d < merge_scratch_.size() && merge_scratch_[d].row < w) {
      next->entries.push_back(merge_scratch_[d++]);
    }
    if (d < merge_scratch_.size() && merge_scratch_[d].row == w) ++d;  // WS overrides dep
    if (commit_cycle != dep_floor) next->entries.push_back({w, commit_cycle});
  }
  while (d < merge_scratch_.size()) next->entries.push_back(merge_scratch_[d++]);

  next = Seal(next);
  // Original write-set order, so dirty tracking matches FMatrix first-touch
  // order exactly.
  for (ObjectId j : write_set) Install(j, next);
}

void SparseFMatrix::ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle) {
  for (const CommitSets& c : commits) ApplyCommit(c.read_set, c.write_set, commit_cycle);
}

void SparseFMatrix::Set(ObjectId i, ObjectId j, Cycle c) {
  if (Column(j).At(i) == c) {
    MarkTouched(j);  // a rewrite with an equal value still counts as touched
    return;
  }
  const SparseColumnData::Entry update{i, c};
  MergeIntoColumn(j, {&update, 1});
}

void SparseFMatrix::MergeIntoColumn(ObjectId j,
                                    std::span<const SparseColumnData::Entry> updates) {
  const SparseColumnData& cur = Column(j);
  Payload* next = NewPayload();
  next->floor = cur.floor;
  next->entries.reserve(cur.entries.size() + updates.size());
  size_t ic = 0;
  for (size_t u = 0; u < updates.size(); ++u) {
    if (u + 1 < updates.size() && updates[u + 1].row == updates[u].row) continue;  // last wins
    while (ic < cur.entries.size() && cur.entries[ic].row < updates[u].row) {
      next->entries.push_back(cur.entries[ic++]);
    }
    if (ic < cur.entries.size() && cur.entries[ic].row == updates[u].row) ++ic;
    if (updates[u].value != next->floor) next->entries.push_back(updates[u]);
  }
  while (ic < cur.entries.size()) next->entries.push_back(cur.entries[ic++]);
  Install(j, Seal(next));
}

void SparseFMatrix::EnableDirtyTracking() {
  track_dirty_ = true;
  touched_mask_.assign(num_objects(), 0);
  touched_cols_.clear();
}

std::vector<ObjectId> SparseFMatrix::TakeTouchedColumns() {
  std::vector<ObjectId> out;
  DrainTouchedColumns(out);
  return out;
}

void SparseFMatrix::DrainTouchedColumns(std::vector<ObjectId>& out) {
  out.clear();
  std::swap(out, touched_cols_);
  for (ObjectId j : out) touched_mask_[j] = 0;
}

size_t SparseFMatrix::ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j) const {
  const SparseColumnData& col = Column(j);
  for (size_t k = 0; k < reads.size(); ++k) {
    if (col.At(reads[k].object) >= reads[k].cycle) return k;
  }
  return kReadConditionPass;
}

uint64_t SparseFMatrix::CompactModulo(const CycleStampCodec& codec, Cycle current) {
  uint64_t dropped = 0;
  // Shared payloads must stay shared after compaction (they are the memory
  // win), so rewritten payloads are memoized by source payload; the empty
  // column is memoized under &kEmptyColumn.
  std::unordered_map<const SparseColumnData*, Payload*> rewritten;
  for (ObjectId j = 0; j < num_objects(); ++j) {
    Payload* const cur = cols_[j];
    const SparseColumnData& src = Column(j);
    auto it = rewritten.find(&src);
    if (it == rewritten.end()) {
      const Cycle floor = codec.Decode(codec.Encode(src.floor), current);
      bool changed = floor != src.floor;
      Payload* next = NewPayload();
      next->floor = floor;
      next->entries.reserve(src.entries.size());
      for (const SparseColumnData::Entry& e : src.entries) {
        const Cycle value = codec.Decode(codec.Encode(e.value), current);
        changed = changed || value != e.value;
        if (value == floor) continue;  // congruent to the floor: now implicit
        next->entries.push_back({e.row, value});
      }
      if (changed) {
        next = Seal(next);
      } else {
        pool_.pool->Free(next);
        next = cur;
      }
      it = rewritten.emplace(&src, next).first;
    }
    if (it->second != cur) {
      dropped += src.entries.size() - (it->second != nullptr ? it->second->entries.size() : 0);
      Install(j, it->second);
    }
  }
  return dropped;
}

FMatrix SparseFMatrix::ToDense() const {
  const uint32_t n = num_objects();
  FMatrix dense(n);
  for (ObjectId j = 0; j < n; ++j) {
    const SparseColumnData& col = Column(j);
    if (col.floor != 0) {
      for (ObjectId i = 0; i < n; ++i) dense.Set(i, j, col.floor);
    }
    for (const SparseColumnData::Entry& e : col.entries) dense.Set(e.row, j, e.value);
  }
  return dense;
}

SparseFMatrix SparseFMatrix::FromDense(const FMatrix& dense) {
  const uint32_t n = dense.num_objects();
  SparseFMatrix sparse(n);
  std::vector<Cycle> sorted;
  for (ObjectId j = 0; j < n; ++j) {
    const std::span<const Cycle> col = dense.Column(j);
    // Most-frequent value as the floor, so adopting a windowed-decoded
    // matrix (channel-mode refresh, where even "untouched" entries decode to
    // a recent nonzero anchor) stays sparse.
    sorted.assign(col.begin(), col.end());
    std::sort(sorted.begin(), sorted.end());
    Cycle floor = 0;
    size_t best = 0;
    for (size_t a = 0; a < sorted.size();) {
      size_t b = a;
      while (b < sorted.size() && sorted[b] == sorted[a]) ++b;
      if (b - a > best) {
        best = b - a;
        floor = sorted[a];
      }
      a = b;
    }
    Payload* data = sparse.NewPayload();
    data->floor = floor;
    for (ObjectId i = 0; i < n; ++i) {
      if (col[i] != floor) data->entries.push_back({i, col[i]});
    }
    sparse.Install(j, sparse.Seal(data));
  }
  return sparse;
}

bool operator==(const SparseFMatrix& a, const SparseFMatrix& b) {
  const uint32_t n = a.num_objects();
  if (n != b.num_objects()) return false;
  for (ObjectId j = 0; j < n; ++j) {
    const SparseColumnData& ca = a.Column(j);
    const SparseColumnData& cb = b.Column(j);
    if (&ca == &cb) continue;
    // Merge walk over both entry lists, counting the rows explicit on either
    // side; if some row is implicit on both, the floors must match too.
    size_t ia = 0, ib = 0;
    uint64_t explicit_rows = 0;
    for (; ia < ca.entries.size() || ib < cb.entries.size(); ++explicit_rows) {
      const bool take_a = ib == cb.entries.size() ||
                          (ia < ca.entries.size() && ca.entries[ia].row <= cb.entries[ib].row);
      const bool take_b = ia == ca.entries.size() ||
                          (ib < cb.entries.size() && cb.entries[ib].row <= ca.entries[ia].row);
      if (take_a && take_b) {
        if (ca.entries[ia].value != cb.entries[ib].value) return false;
        ++ia, ++ib;
      } else if (take_a) {
        if (ca.entries[ia].value != cb.floor) return false;
        ++ia;
      } else {
        if (cb.entries[ib].value != ca.floor) return false;
        ++ib;
      }
    }
    if (explicit_rows < n && ca.floor != cb.floor) return false;
  }
  return true;
}

uint64_t SparseMatrixControlBits(uint64_t nnz, uint32_t nonempty_columns, uint32_t num_objects,
                                 unsigned ts_bits) {
  const unsigned index_bits =
      num_objects > 1 ? static_cast<unsigned>(std::bit_width(num_objects - 1)) : 0u;
  return 32 + static_cast<uint64_t>(nonempty_columns) * (index_bits + ts_bits + 32) +
         nnz * (index_bits + ts_bits);
}

uint64_t SparseMatrixControlBits(const SparseFMatrix& matrix, unsigned ts_bits) {
  return SparseMatrixControlBits(matrix.nnz(), matrix.nonempty_columns(),
                                 matrix.num_objects(), ts_bits);
}

}  // namespace bcc
