// Client-side read-only transaction protocol (Section 3.2.1/3.2.2).
//
// A read-only transaction never contacts the server. Before each read it
// evaluates its algorithm's read condition against the control information
// broadcast in the cycle it reads from; failure aborts the transaction
// (Status::Aborted), after which the client restarts it. Commit is a no-op.
//
// When a CycleStampCodec is supplied, every control entry consulted is
// round-tripped through its TS-bit wire encoding (residue encode at the
// server, windowed decode at the client anchored on the current cycle),
// exactly as the paper's modulo-arithmetic scheme prescribes. Entries older
// than the codec window alias to more recent cycles, which can only cause
// spurious aborts — never a consistency violation.

#ifndef BCC_CLIENT_READ_TXN_H_
#define BCC_CLIENT_READ_TXN_H_

#include <optional>
#include <vector>

#include "common/statusor.h"
#include "matrix/control_info.h"
#include "matrix/control_view.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"

namespace bcc {

struct CacheEntry;  // client/cache.h

/// Per-transaction protocol state machine, reusable across restarts via
/// Reset().
class ReadOnlyTxnProtocol {
 public:
  explicit ReadOnlyTxnProtocol(Algorithm algorithm,
                               std::optional<CycleStampCodec> codec = std::nullopt);

  Algorithm algorithm() const { return algorithm_; }

  /// Attempts to read `ob` off the air from cycle snapshot `snap`. On
  /// success records (ob, snap.cycle) and returns the version read; on read-
  /// condition failure returns Status::Aborted (caller restarts the txn).
  StatusOr<ObjectVersion> Read(const CycleSnapshot& snap, ObjectId ob);

  /// Attempts to serve `ob` from a cache entry (Section 3.3).
  ///
  /// F-Matrix/F-Matrix-No: the entry's stored column substitutes for the
  /// broadcast column, and — because a cached read may be *older* than
  /// previous reads — the condition is checked in both directions: the
  /// cached value must not depend on overwrites of anything already read
  /// (paper's rule), and no previously read value may depend on a write to
  /// `ob` at or after the cached cycle (checked against the columns stored
  /// with every earlier read). Records (ob, entry.cycle) on success.
  ///
  /// R-Matrix: the reduced entry cannot describe stale dependencies, so a
  /// cached value is only served when it is still current (no committed
  /// write since it was cached, per the latest on-air vector); the read is
  /// then exactly equivalent to a fresh read at snap.cycle and is validated
  /// and recorded as such.
  ///
  /// Datacycle: always rejected (the paper gives it no caching story).
  StatusOr<ObjectVersion> ReadFromCache(const CacheEntry& entry, ObjectId ob,
                                        const CycleSnapshot& snap);

  /// Read-only commit: always succeeds, returns the number of reads.
  size_t Commit() const { return reads_.size(); }

  /// Clears all per-attempt state for a restart.
  void Reset();

  /// Replaces the control source of every F-family check and column capture
  /// (an empty view restores the snapshot's: its group_matrix when it has
  /// one, else CycleSnapshot::control()). Delta mode passes the tracker's
  /// reconstruction, channel mode the receiver's decoded columns; the caller
  /// keeps the matrix in sync with the snapshot being read. Decisions stay
  /// bit-identical to full-mode validation while the source is congruent to
  /// the server matrix mod 2^ts: Stamp() re-round-trips every entry through
  /// the codec, and Decode(Encode(x), c) depends on x only mod 2^ts.
  void set_control_override(ControlView source) { control_override_ = source; }
  ControlView control_override() const { return control_override_; }

  /// Routes every F-family check through a hierarchical matrix
  /// (MatrixMode::kHier): unrefined columns validate against the group
  /// aggregate (conservative — spurious aborts only), refined ones against
  /// the exact column. Mutable because scans record spurious-abort evidence
  /// for the refinement policy. Takes precedence over the control source;
  /// incompatible with the cache and the wire codec (enforced by
  /// SimConfig::Validate).
  void set_hier_control_override(HierMatrix* matrix) { hier_control_override_ = matrix; }
  HierMatrix* hier_control_override() const { return hier_control_override_; }

  /// Gates the per-read capture of the full consulted control column
  /// (F-family, ungrouped). The capture is O(n) per read and exists solely
  /// so later *stale* cached reads can be validated against it — a client
  /// with no cache pays it for nothing, and at n = 10^6 it dominates the
  /// read cost. Defaults to on (safe); the sims pass their enable_cache
  /// flag. With capture off, ReadFromCache's F-family path rejects stale
  /// insertions (no evidence), which is the conservative direction.
  void set_capture_columns(bool capture) { capture_columns_ = capture; }
  bool capture_columns() const { return capture_columns_; }

  /// Substitutes `values` for the snapshot's object array in Read (nullptr
  /// restores the broadcast values). Used in channel mode, where the client
  /// reads data pages from its receiver's reassembled frames instead of the
  /// in-process snapshot; the caller owns the vector, keeps it sized to the
  /// database, and gates reads on the page having been received this cycle.
  void set_value_override(const std::vector<ObjectVersion>* values) {
    value_override_ = values;
  }
  const std::vector<ObjectVersion>* value_override() const { return value_override_; }

  const std::vector<ReadRecord>& reads() const { return reads_; }
  const std::vector<ObjectVersion>& values() const { return values_; }
  /// Cycle of the first successful read (R-Matrix's c1); 0 before any read.
  Cycle first_read_cycle() const { return first_read_cycle_; }

  /// Structured cause of the most recent failed Read: which pair
  /// (ob_i, ob_j) fired, the read cycle, and the conflicting stamp —
  /// captured at the exact check that failed. Meaningful only immediately
  /// after Read returned Aborted; cleared by Reset.
  const AbortInfo& last_abort() const { return last_abort_; }

 private:
  /// Control-entry view with optional wire-codec round trip.
  Cycle Stamp(Cycle raw, Cycle current) const;

  /// The control source in force for `snap` (see set_control_override).
  ControlView Control(const CycleSnapshot& snap) const;

  bool CheckFMatrix(const CycleSnapshot& snap, ObjectId ob);
  bool CheckRMatrix(const CycleSnapshot& snap, ObjectId ob);
  bool CheckDatacycle(const CycleSnapshot& snap, ObjectId ob);

  void Record(ObjectId ob, Cycle cycle, const ObjectVersion& version,
              std::vector<Cycle> column);

  Algorithm algorithm_;
  std::optional<CycleStampCodec> codec_;
  ControlView control_override_;
  HierMatrix* hier_control_override_ = nullptr;
  const std::vector<ObjectVersion>* value_override_ = nullptr;
  bool capture_columns_ = true;
  std::vector<ReadRecord> reads_;
  std::vector<ObjectVersion> values_;
  /// Per read: the control column consulted (F-family, ungrouped only;
  /// empty otherwise). Needed to validate later *stale* cached reads.
  std::vector<std::vector<Cycle>> columns_;
  std::vector<Cycle> column_scratch_;  // a sparse column materialized by Read
  Cycle first_read_cycle_ = 0;
  AbortInfo last_abort_;
};

/// The observable outcome of one completed client transaction: the read
/// records of the final (committed or censored) attempt plus how many times
/// the transaction aborted and restarted on the way. Two engines that agree
/// on every TxnDecision of every client made identical commit/abort
/// decisions on identical data — the unit of the sequential-vs-concurrent
/// cross-check (see sim/concurrent_sim.h).
struct TxnDecision {
  std::vector<ReadRecord> reads;
  uint32_t restarts = 0;
  bool censored = false;

  friend bool operator==(const TxnDecision& a, const TxnDecision& b) {
    return a.reads == b.reads && a.restarts == b.restarts && a.censored == b.censored;
  }
};

}  // namespace bcc

#endif  // BCC_CLIENT_READ_TXN_H_
