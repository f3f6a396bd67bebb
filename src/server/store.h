// The server's two-version object store (Section 3.2.1, server function 1:
// "the server has to maintain two versions of objects: the latest committed
// version and the last written version").
//
// Object values are modeled as monotonically increasing counters tagged with
// the writing transaction and its commit cycle; the broadcast payload size
// is a simulation parameter and does not affect correctness.

#ifndef BCC_SERVER_STORE_H_
#define BCC_SERVER_STORE_H_

#include <optional>
#include <vector>

#include "common/cow_pages.h"
#include "common/cycle_stamp.h"
#include "common/status.h"
#include "history/object_id.h"

namespace bcc {

/// One committed version of an object.
struct ObjectVersion {
  uint64_t value = 0;       ///< counter; 0 is the initial (t0) value
  TxnId writer = kInitTxn;  ///< transaction that wrote it
  Cycle cycle = 0;          ///< broadcast cycle in which the write committed

  friend bool operator==(const ObjectVersion& a, const ObjectVersion& b) {
    return a.value == b.value && a.writer == b.writer && a.cycle == b.cycle;
  }
};

/// Every object's committed version, page-shared between the live store and
/// the cycle snapshots taken of it.
using ObjectValues = CowPages<ObjectVersion>;

/// Two-version store: committed versions plus a staging area for the single
/// update transaction currently executing at the server (updates are applied
/// serially, matching the paper's simple case).
class VersionedStore {
 public:
  explicit VersionedStore(uint32_t num_objects);

  uint32_t num_objects() const { return static_cast<uint32_t>(committed_.size()); }

  /// Latest committed version.
  const ObjectVersion& Committed(ObjectId ob) const { return committed_[ob]; }

  /// Value a server-side transaction read: its own staged write if any,
  /// else the latest committed version.
  const ObjectVersion& ReadForStaging(ObjectId ob) const;

  /// Stages a write for the in-flight transaction (last-written version).
  void StageWrite(ObjectId ob, TxnId writer);

  bool HasStagedWrites() const { return !staged_order_.empty(); }

  /// Installs all staged writes as committed at `commit_cycle`.
  void CommitStaged(Cycle commit_cycle);

  /// Discards all staged writes.
  void AbortStaged();

  /// All committed versions (snapshot source for the broadcast: a copy
  /// shares every page no later commit writes).
  const ObjectValues& committed() const { return committed_; }

 private:
  ObjectValues committed_;
  std::vector<std::optional<ObjectVersion>> staged_;
  std::vector<ObjectId> staged_order_;
  uint64_t next_value_ = 1;
};

}  // namespace bcc

#endif  // BCC_SERVER_STORE_H_
