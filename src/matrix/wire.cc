#include "matrix/wire.h"

#include <algorithm>
#include <bit>

#include "common/bitstream.h"
#include "matrix/kernels.h"

namespace bcc {

BroadcastGeometry ComputeGeometry(Algorithm algorithm, uint32_t num_objects,
                                  uint64_t object_bits, unsigned ts_bits,
                                  uint32_t num_groups) {
  BroadcastGeometry g;
  g.object_bits = object_bits;
  switch (algorithm) {
    case Algorithm::kFMatrix:
      g.control_bits =
          static_cast<uint64_t>(num_groups == 0 ? num_objects : num_groups) * ts_bits;
      break;
    case Algorithm::kRMatrix:
    case Algorithm::kDatacycle:
      g.control_bits = ts_bits;
      break;
    case Algorithm::kFMatrixNo:
      g.control_bits = 0;
      break;
  }
  g.slot_bits = g.object_bits + g.control_bits;
  g.cycle_bits = static_cast<uint64_t>(num_objects) * g.slot_bits;
  g.control_fraction =
      g.slot_bits == 0 ? 0.0
                       : static_cast<double>(g.control_bits) / static_cast<double>(g.slot_bits);
  return g;
}

std::vector<uint32_t> EncodeStamps(std::span<const Cycle> stamps, const CycleStampCodec& codec) {
  std::vector<uint32_t> out;
  out.reserve(stamps.size());
  for (Cycle c : stamps) out.push_back(codec.Encode(c));
  return out;
}

std::vector<Cycle> DecodeStamps(std::span<const uint32_t> residues, const CycleStampCodec& codec,
                                Cycle current) {
  std::vector<Cycle> out;
  out.reserve(residues.size());
  for (uint32_t r : residues) out.push_back(codec.Decode(r, current));
  return out;
}

std::vector<uint8_t> PackStamps(std::span<const Cycle> stamps, const CycleStampCodec& codec) {
  BitWriter writer;
  for (Cycle c : stamps) writer.Write(codec.Encode(c), codec.bits());
  return std::move(writer).Take();
}

StatusOr<std::vector<Cycle>> UnpackStamps(std::span<const uint8_t> bytes, size_t count,
                                          const CycleStampCodec& codec, Cycle current) {
  // PackStamps emits exactly count * bits data bits zero-padded to a whole
  // byte; anything else is framing corruption.
  const size_t expected_bytes = (count * codec.bits() + 7) / 8;
  if (bytes.size() > expected_bytes) {
    return Status::InvalidArgument("UnpackStamps: buffer has trailing bytes");
  }
  BitReader reader(bytes);
  std::vector<Cycle> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t residue = 0;
    BCC_RETURN_IF_ERROR(reader.Read(codec.bits(), &residue));
    out.push_back(codec.Decode(residue, current));
  }
  if (const size_t pad = reader.bits_remaining(); pad > 0) {
    uint32_t padding = 0;
    BCC_RETURN_IF_ERROR(reader.Read(static_cast<unsigned>(pad), &padding));
    if (padding != 0) {
      return Status::InvalidArgument("UnpackStamps: nonzero padding bits");
    }
  }
  return out;
}

uint64_t FullMatrixControlBits(uint32_t num_objects, unsigned ts_bits) {
  return static_cast<uint64_t>(num_objects) * num_objects * ts_bits;
}

std::vector<DeltaCodec::Entry> DeltaCodec::Diff(const FMatrix& prev, const FMatrix& cur,
                                                const CycleStampCodec& codec) {
  std::vector<Entry> out;
  const uint32_t n = cur.num_objects();
  for (ObjectId j = 0; j < n; ++j) {
    for (ObjectId i = 0; i < n; ++i) {
      if (prev.At(i, j) != cur.At(i, j)) {
        out.push_back({i, j, codec.Encode(cur.At(i, j))});
      }
    }
  }
  return out;
}

std::vector<DeltaCodec::Entry> DeltaCodec::DiffColumns(const FMatrix& prev, const FMatrix& cur,
                                                       std::span<const ObjectId> touched_columns,
                                                       const CycleStampCodec& codec) {
  std::vector<ObjectId> cols(touched_columns.begin(), touched_columns.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

  // Emission stays in ascending (col, row) order, identical to Diff's.
  std::vector<Entry> out;
  const uint32_t n = cur.num_objects();
  std::vector<ObjectId> rows(n);
  for (ObjectId j : cols) {
    const Cycle* a = prev.Column(j).data();
    const Cycle* b = cur.Column(j).data();
    const uint32_t changed = KernelColumnDiffIndices(a, b, n, rows.data());
    for (uint32_t k = 0; k < changed; ++k) {
      out.push_back({rows[k], j, codec.Encode(b[rows[k]])});
    }
  }
  return out;
}

std::vector<DeltaCodec::Entry> DeltaCodec::DiffColumns(const SparseFMatrix& prev,
                                                       const SparseFMatrix& cur,
                                                       std::span<const ObjectId> touched_columns,
                                                       const CycleStampCodec& codec) {
  std::vector<ObjectId> cols(touched_columns.begin(), touched_columns.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());

  std::vector<Entry> out;
  const uint32_t n = cur.num_objects();
  std::vector<Cycle> prev_dense, cur_dense;
  for (ObjectId j : cols) {
    const SparseColumnData& a = prev.Column(j);
    const SparseColumnData& b = cur.Column(j);
    if (&a == &b) continue;  // shared payload: provably unchanged
    if (a.floor != b.floor) {
      // Differing floors make every doubly-implicit row differ too; the
      // straightforward dense walk is the clear O(n) way to emit them all.
      // (Server-path matrices keep floor 0 throughout, so this branch only
      // runs for client-reconstructed bases.)
      prev.MaterializeColumn(j, prev_dense);
      cur.MaterializeColumn(j, cur_dense);
      for (ObjectId i = 0; i < n; ++i) {
        if (prev_dense[i] != cur_dense[i]) out.push_back({i, j, codec.Encode(cur_dense[i])});
      }
      continue;
    }
    // Equal floors: only rows explicit in at least one side can differ.
    size_t ia = 0, ib = 0;
    while (ia < a.entries.size() || ib < b.entries.size()) {
      const bool take_a = ib == b.entries.size() ||
                          (ia < a.entries.size() && a.entries[ia].row <= b.entries[ib].row);
      const bool take_b = ia == a.entries.size() ||
                          (ib < b.entries.size() && b.entries[ib].row <= a.entries[ia].row);
      if (take_a && take_b) {
        if (a.entries[ia].value != b.entries[ib].value) {
          out.push_back({a.entries[ia].row, j, codec.Encode(b.entries[ib].value)});
        }
        ++ia, ++ib;
      } else if (take_a) {
        out.push_back({a.entries[ia].row, j, codec.Encode(b.floor)});
        ++ia;
      } else {
        out.push_back({b.entries[ib].row, j, codec.Encode(b.entries[ib].value)});
        ++ib;
      }
    }
  }
  return out;
}

void DeltaCodec::Apply(FMatrix* base, std::span<const Entry> entries,
                       const CycleStampCodec& codec, Cycle current) {
  for (const Entry& e : entries) {
    base->Set(e.row, e.col, codec.Decode(e.residue, current));
  }
}

void DeltaCodec::Apply(SparseFMatrix* base, std::span<const Entry> entries,
                       const CycleStampCodec& codec, Cycle current) {
  // Entries arrive grouped by column in ascending row order (Diff emission
  // and Pack/Unpack preserve it); rebuild each column's payload once instead
  // of one copy-on-write rebuild per entry. Row order within a run is not
  // assumed — a defensive stable sort keeps last-wins semantics identical to
  // the dense Apply even on adversarial input.
  std::vector<SparseColumnData::Entry> updates;
  for (size_t k = 0; k < entries.size();) {
    const ObjectId j = entries[k].col;
    updates.clear();
    for (; k < entries.size() && entries[k].col == j; ++k) {
      updates.push_back({entries[k].row, codec.Decode(entries[k].residue, current)});
    }
    std::stable_sort(updates.begin(), updates.end(),
                     [](const SparseColumnData::Entry& a, const SparseColumnData::Entry& b) {
                       return a.row < b.row;
                     });
    const SparseColumnData& cur = base->Column(j);
    auto next = std::make_shared<SparseColumnData>();
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
    base->AssignColumn(j, std::move(next));
  }
}

uint64_t DeltaCodec::EncodedBits(size_t num_entries, uint32_t num_objects, unsigned ts_bits) {
  // ceil(log2 n) bits address n indices; n == 1 needs zero (the only index is
  // implicit), and exact powers of two need log2(n), not log2(n) + 1.
  const unsigned index_bits =
      num_objects > 1 ? static_cast<unsigned>(std::bit_width(num_objects - 1)) : 0u;
  return 32 + static_cast<uint64_t>(num_entries) * (2ull * index_bits + ts_bits);
}

namespace {

unsigned IndexBits(uint32_t num_objects) {
  return num_objects > 1 ? static_cast<unsigned>(std::bit_width(num_objects - 1)) : 0u;
}

}  // namespace

std::vector<uint8_t> DeltaCodec::Pack(std::span<const Entry> entries, uint32_t num_objects,
                                      const CycleStampCodec& codec) {
  const unsigned index_bits = IndexBits(num_objects);
  BitWriter writer;
  writer.Write(static_cast<uint32_t>(entries.size()), 32);
  for (const Entry& e : entries) {
    // n == 1: the only index is implicit, and BitWriter rejects zero-width
    // writes, so indices are simply omitted.
    if (index_bits > 0) {
      writer.Write(e.row, index_bits);
      writer.Write(e.col, index_bits);
    }
    writer.Write(e.residue, codec.bits());
  }
  return std::move(writer).Take();
}

StatusOr<std::vector<DeltaCodec::Entry>> DeltaCodec::Unpack(std::span<const uint8_t> bytes,
                                                            uint32_t num_objects,
                                                            const CycleStampCodec& codec) {
  const unsigned index_bits = IndexBits(num_objects);
  BitReader reader(bytes);
  uint32_t count = 0;
  BCC_RETURN_IF_ERROR(reader.Read(32, &count));
  const uint64_t max_entries = static_cast<uint64_t>(num_objects) * num_objects;
  if (count > max_entries) {
    return Status::InvalidArgument("DeltaCodec::Unpack: entry count exceeds n^2");
  }
  const size_t expected_bytes = (EncodedBits(count, num_objects, codec.bits()) + 7) / 8;
  if (bytes.size() > expected_bytes) {
    return Status::InvalidArgument("DeltaCodec::Unpack: buffer has trailing bytes");
  }
  std::vector<Entry> out;
  out.reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    Entry e{0, 0, 0};
    if (index_bits > 0) {
      uint32_t v = 0;
      BCC_RETURN_IF_ERROR(reader.Read(index_bits, &v));
      if (v >= num_objects) return Status::InvalidArgument("DeltaCodec::Unpack: row out of range");
      e.row = v;
      BCC_RETURN_IF_ERROR(reader.Read(index_bits, &v));
      if (v >= num_objects) {
        return Status::InvalidArgument("DeltaCodec::Unpack: column out of range");
      }
      e.col = v;
    }
    BCC_RETURN_IF_ERROR(reader.Read(codec.bits(), &e.residue));
    out.push_back(e);
  }
  if (const size_t pad = reader.bits_remaining(); pad > 0) {
    uint32_t padding = 0;
    BCC_RETURN_IF_ERROR(reader.Read(static_cast<unsigned>(pad), &padding));
    if (padding != 0) {
      return Status::InvalidArgument("DeltaCodec::Unpack: nonzero padding bits");
    }
  }
  return out;
}

std::vector<uint8_t> PackMatrix(const FMatrix& matrix, const CycleStampCodec& codec) {
  BitWriter writer;
  const uint32_t n = matrix.num_objects();
  for (ObjectId j = 0; j < n; ++j) {
    for (const Cycle c : matrix.Column(j)) writer.Write(codec.Encode(c), codec.bits());
  }
  return std::move(writer).Take();
}

std::vector<uint8_t> PackMatrix(const SparseFMatrix& matrix, const CycleStampCodec& codec) {
  // Byte-identical to the dense packing: the on-air format does not change
  // with the server's in-memory representation.
  BitWriter writer;
  const uint32_t n = matrix.num_objects();
  std::vector<Cycle> column;
  for (ObjectId j = 0; j < n; ++j) {
    matrix.MaterializeColumn(j, column);
    for (const Cycle c : column) writer.Write(codec.Encode(c), codec.bits());
  }
  return std::move(writer).Take();
}

StatusOr<FMatrix> UnpackMatrix(std::span<const uint8_t> bytes, uint32_t num_objects,
                               const CycleStampCodec& codec, Cycle current) {
  const size_t expected_bytes =
      (FullMatrixControlBits(num_objects, codec.bits()) + 7) / 8;
  if (bytes.size() > expected_bytes) {
    return Status::InvalidArgument("UnpackMatrix: buffer has trailing bytes");
  }
  BitReader reader(bytes);
  FMatrix matrix(num_objects);
  for (ObjectId j = 0; j < num_objects; ++j) {
    for (ObjectId i = 0; i < num_objects; ++i) {
      uint32_t residue = 0;
      BCC_RETURN_IF_ERROR(reader.Read(codec.bits(), &residue));
      matrix.Set(i, j, codec.Decode(residue, current));
    }
  }
  if (const size_t pad = reader.bits_remaining(); pad > 0) {
    uint32_t padding = 0;
    BCC_RETURN_IF_ERROR(reader.Read(static_cast<unsigned>(pad), &padding));
    if (padding != 0) {
      return Status::InvalidArgument("UnpackMatrix: nonzero padding bits");
    }
  }
  return matrix;
}

}  // namespace bcc
