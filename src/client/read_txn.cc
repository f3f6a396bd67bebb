#include "client/read_txn.h"

#include <cassert>

#include "client/cache.h"
#include "common/format.h"
#include "matrix/kernels.h"

namespace bcc {

ReadOnlyTxnProtocol::ReadOnlyTxnProtocol(Algorithm algorithm,
                                         std::optional<CycleStampCodec> codec)
    : algorithm_(algorithm), codec_(codec) {}

Cycle ReadOnlyTxnProtocol::Stamp(Cycle raw, Cycle current) const {
  if (!codec_.has_value()) return raw;
  return codec_->Decode(codec_->Encode(raw), current);
}

ControlView ReadOnlyTxnProtocol::Control(const CycleSnapshot& snap) const {
  // Grouped spectrum (Section 3.2.2): the column of ob_j is MC(., group(j)).
  const ControlView broadcast =
      snap.group_matrix.has_value() ? ControlView(*snap.group_matrix) : snap.control();
  return control_override_.Or(broadcast);
}

bool ReadOnlyTxnProtocol::CheckFMatrix(const CycleSnapshot& snap, ObjectId ob) {
  if (hier_control_override_ != nullptr) {
    // Hierarchical view: no codec round trip (Validate rejects the wire
    // codec in hier mode), conservative group check with spurious-abort
    // classification inside the scan.
    const size_t fail = hier_control_override_->ReadConditionScan(reads_, ob, snap.cycle);
    if (fail == kReadConditionPass) return true;
    const ReadRecord& r = reads_[fail];
    last_abort_ = {AbortCause::kControlConflict, r.object, ob, r.cycle,
                   hier_control_override_->EffectiveAt(r.object, ob)};
    return false;
  }
  // read-condition(ob_j): for all (ob_i, cycle) in R_t : C(i, j) < cycle.
  // Every representation answers it exactly (ControlView), so decisions and
  // AbortInfo do not depend on how C is stored.
  const ControlView control = Control(snap);
  if (!codec_.has_value()) {
    // No wire round trip: the raw scan early-exits at the first failing
    // read, exactly like the loop below.
    const size_t fail = control.ReadConditionScan(reads_, ob);
    if (fail == kReadConditionPass) return true;
    const ReadRecord& r = reads_[fail];
    last_abort_ = {AbortCause::kControlConflict, r.object, ob, r.cycle, control.At(r.object, ob)};
    return false;
  }
  for (const ReadRecord& r : reads_) {
    const Cycle c = Stamp(control.At(r.object, ob), snap.cycle);
    if (c >= r.cycle) {
      last_abort_ = {AbortCause::kControlConflict, r.object, ob, r.cycle, c};
      return false;
    }
  }
  return true;
}

bool ReadOnlyTxnProtocol::CheckDatacycle(const CycleSnapshot& snap, ObjectId ob) {
  // MC(i) is the on-air commit cycle of ob_i's value.
  for (const ReadRecord& r : reads_) {
    const Cycle c = Stamp(snap.values[r.object].cycle, snap.cycle);
    if (c >= r.cycle) {
      last_abort_ = {AbortCause::kMcConflict, r.object, ob, r.cycle, c};
      return false;
    }
  }
  return true;
}

bool ReadOnlyTxnProtocol::CheckRMatrix(const CycleSnapshot& snap, ObjectId ob) {
  if (CheckDatacycle(snap, ob)) return true;
  // Weakened disjunct: the object now being read is unchanged since the
  // transaction's first read.
  const Cycle c = Stamp(snap.values[ob].cycle, snap.cycle);
  if (c < first_read_cycle_) return true;
  last_abort_ = {AbortCause::kMcConflict, ob, ob, first_read_cycle_, c};
  return false;
}

void ReadOnlyTxnProtocol::Record(ObjectId ob, Cycle cycle, const ObjectVersion& version,
                                 std::vector<Cycle> column) {
  if (reads_.empty()) first_read_cycle_ = cycle;
  reads_.push_back({ob, cycle});
  values_.push_back(version);
  columns_.push_back(std::move(column));
}

StatusOr<ObjectVersion> ReadOnlyTxnProtocol::Read(const CycleSnapshot& snap, ObjectId ob) {
  bool ok = false;
  switch (algorithm_) {
    case Algorithm::kFMatrix:
    case Algorithm::kFMatrixNo:
      ok = CheckFMatrix(snap, ob);
      break;
    case Algorithm::kRMatrix:
      ok = CheckRMatrix(snap, ob);
      break;
    case Algorithm::kDatacycle:
      ok = CheckDatacycle(snap, ob);
      break;
  }
  if (!ok) {
    return Status::Aborted(StrFormat("read-condition(ob%u) failed at cycle %llu", ob,
                                     static_cast<unsigned long long>(snap.cycle)));
  }
  const ObjectVersion version =
      value_override_ != nullptr ? (*value_override_)[ob] : snap.values[ob];
  // Keep the consulted column (as the client decoded it) so that later
  // stale cached reads can be validated against it.
  std::vector<Cycle> column;
  const bool f_family =
      algorithm_ == Algorithm::kFMatrix || algorithm_ == Algorithm::kFMatrixNo;
  if (capture_columns_ && f_family && !snap.group_matrix.has_value()) {
    const ControlView control = Control(snap);
    if (control.num_objects() > 0) {
      const std::span<const Cycle> raw = control.Column(ob, column_scratch_);
      column.reserve(raw.size());
      for (Cycle c : raw) column.push_back(Stamp(c, snap.cycle));
    }
  }
  Record(ob, snap.cycle, version, std::move(column));
  return version;
}

StatusOr<ObjectVersion> ReadOnlyTxnProtocol::ReadFromCache(const CacheEntry& entry, ObjectId ob,
                                                           const CycleSnapshot& snap) {
  auto reject = [&]() -> Status {
    return Status::Aborted(
        StrFormat("cache read-condition(ob%u) failed (cached cycle %llu)", ob,
                  static_cast<unsigned long long>(entry.cycle)));
  };

  switch (algorithm_) {
    case Algorithm::kFMatrix:
    case Algorithm::kFMatrixNo: {
      if (entry.column.empty() || snap.group_matrix.has_value()) return reject();
      // Forward direction (the paper's rule, with the stored column standing
      // in for the broadcast one): the cached value must not depend on a
      // transaction that overwrote anything we already read.
      for (const ReadRecord& r : reads_) {
        if (entry.column[r.object] >= r.cycle) return reject();
      }
      // Reverse direction — needed because this read may be OLDER than
      // previous reads: no previously read value may depend on a write to
      // `ob` at or after the cached cycle. Fresh reads satisfy this
      // automatically (their column entries precede their own cycle, which
      // is itself <= any later read's cycle), but a stale insertion must be
      // checked explicitly against every stored column.
      for (size_t k = 0; k < reads_.size(); ++k) {
        if (columns_[k].empty()) return reject();  // no evidence: be safe
        if (columns_[k][ob] >= entry.cycle) return reject();
      }
      Record(ob, entry.cycle, entry.version, entry.column);
      return entry.version;
    }
    case Algorithm::kRMatrix: {
      // The reduced vector cannot describe a stale value's dependencies, so
      // only serve the cached value if it is still current: no committed
      // write to `ob` since the cached cycle per the latest on-air vector.
      // The read is then equivalent to a fresh read at snap.cycle.
      if (Stamp(snap.values[ob].cycle, snap.cycle) >= entry.cycle) return reject();
      if (!CheckRMatrix(snap, ob)) return reject();
      Record(ob, snap.cycle, entry.version, {});
      return entry.version;
    }
    case Algorithm::kDatacycle:
      // Datacycle has no caching story in the paper: reject so callers fall
      // back to the broadcast.
      return reject();
  }
  return reject();
}

void ReadOnlyTxnProtocol::Reset() {
  reads_.clear();
  values_.clear();
  columns_.clear();
  first_read_cycle_ = 0;
  last_abort_ = {};
}

}  // namespace bcc
