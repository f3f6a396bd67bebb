// Multiversion timestamp-ordering (MVTO) version store for the parallel
// update engine.
//
// Each object carries a chain of committed versions ordered by the writer's
// timestamp. A reader with timestamp ts observes the newest version with
// version_ts <= ts and stamps it with its read (max_read_ts); a writer with
// timestamp ts may install a version only if no later-timestamped reader has
// already observed the state the write would invalidate — otherwise the
// writer aborts and retries with a fresh timestamp. The serialization order
// of committed transactions is exactly timestamp order.
//
// Version maintenance follows the lazy/batched direction of Faleiro &
// Abadi's "Rethinking serializable multiversion concurrency control"
// (PAPERS.md): chains grow freely while an epoch (one broadcast cycle's
// batch) executes, and garbage collection runs once per epoch boundary when
// the TxnProcessor's barrier guarantees no transaction is in flight —
// CollectGarbage never contends with the execution hot path. It visits only
// the chains holding more than one version (the objects written since they
// were last collapsed), so an epoch's GC costs O(objects written), not O(n).

#ifndef BCC_SERVER_EXEC_MVCC_STORE_H_
#define BCC_SERVER_EXEC_MVCC_STORE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "history/object_id.h"

namespace bcc {

/// One committed version of an object in the MVTO store.
struct MvccVersion {
  uint64_t version_ts = 0;   ///< writer's timestamp (0 = initial t0 version)
  uint64_t max_read_ts = 0;  ///< largest reader timestamp that observed it
  TxnId writer = kInitTxn;
};

/// Striped MVTO version store. Reads latch one stripe; a commit latches
/// every stripe its write set touches (in stripe order, so commits never
/// deadlock) and installs all-or-nothing, which keeps multi-object commits
/// atomic with respect to concurrent readers.
class MvccStore {
 public:
  explicit MvccStore(uint32_t num_objects);

  uint32_t num_objects() const { return static_cast<uint32_t>(chains_.size()); }

  struct ReadResult {
    TxnId writer = kInitTxn;
    uint64_t version_ts = 0;
  };

  /// Observes the newest version with version_ts <= ts and records the read
  /// (bumps that version's max_read_ts).
  ReadResult Read(ObjectId ob, uint64_t ts);

  /// MVTO commit: atomically checks every object in `write_set` (the version
  /// a ts-ordered reader of the pre-state observed must not have been read
  /// by any transaction younger than `ts`) and, if all pass, installs one
  /// new version per object. Returns false — installing nothing — when any
  /// check fails; the caller aborts and retries with a fresh timestamp.
  /// `write_set` must be duplicate-free.
  bool CommitWrites(std::span<const ObjectId> write_set, TxnId writer, uint64_t ts);

  /// Epoch-batched garbage collection: for every object, drops all versions
  /// older than the newest one with version_ts <= safe_ts. Call only at a
  /// quiescent point (the TxnProcessor's batch barrier passes a safe_ts
  /// above every timestamp issued). Visits only chains longer than one
  /// version. Returns the number of versions pruned.
  uint64_t CollectGarbage(uint64_t safe_ts);

  /// Current chain length of one object (test/bench introspection).
  size_t VersionCount(ObjectId ob);

  /// Cumulative versions dropped by CollectGarbage.
  uint64_t versions_pruned() const { return versions_pruned_; }

  /// Cumulative chains CollectGarbage examined (test introspection: with
  /// safe_ts above every timestamp, one per distinct object written).
  uint64_t chains_visited() const { return chains_visited_; }

 private:
  static constexpr size_t kStripes = 64;  // a commit's stripes fit one mask word
  struct Stripe {
    std::mutex mu;
    /// The stripe's objects whose chain holds more than one version — the
    /// only chains GC can shorten. Guarded by `mu`, like the chains.
    std::vector<ObjectId> multi_version;
  };
  static size_t StripeOf(ObjectId ob) { return ob % kStripes; }

  std::vector<std::vector<MvccVersion>> chains_;  // per object, ascending ts
  std::array<Stripe, kStripes> stripes_;
  uint64_t versions_pruned_ = 0;  // written only at quiescent GC points
  uint64_t chains_visited_ = 0;   // likewise
};

}  // namespace bcc

#endif  // BCC_SERVER_EXEC_MVCC_STORE_H_
