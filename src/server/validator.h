// Optimistic validation of client update transactions (Section 3.2.1,
// client functionality, Commit: "a list of all the objects written and the
// values written are sent to the server. In addition, the list of all read
// operations performed and the cycle numbers in which they are performed
// are sent to the server. The server checks to see whether the update
// transaction can be committed").
//
// Validation rule (backward validation): every object the client read must
// still carry the committed version it read, i.e. no transaction that
// committed in or after the read's cycle wrote it. On success the
// transaction is executed serially at the server, placing it after every
// previously committed transaction — which preserves conflict
// serializability of all update transactions.

#ifndef BCC_SERVER_VALIDATOR_H_
#define BCC_SERVER_VALIDATOR_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "matrix/control_info.h"
#include "obs/trace.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"

namespace bcc {

/// A client update transaction as submitted over the uplink.
struct ClientUpdateRequest {
  TxnId id = kNoTxn;
  /// Reads performed off the broadcast, with the cycle each was read in.
  std::vector<ReadRecord> reads;
  /// Objects the client wrote locally (values are regenerated server-side;
  /// the store models values as version counters).
  std::vector<ObjectId> writes;
};

/// Server-side validator for client update transactions.
class UpdateValidator {
 public:
  explicit UpdateValidator(ServerTxnManager* manager) : manager_(manager) {}

  /// Validates `request` against the current committed state during
  /// broadcast cycle `current_cycle`. On success the transaction commits
  /// and its commit cycle is returned; on conflict, Status::Aborted.
  ///
  /// Direct mode (default): validation reads MC(ob) from the manager's
  /// eagerly written store (values[ob].cycle) and an accepted transaction
  /// is executed serially at the manager on the spot. Staged mode
  /// (AttachStagedMode): validation reads the merged max(store MC, overlay)
  /// view and an accepted transaction is staged into the overlay and handed
  /// to the sink instead — the engine folds it into the manager at the
  /// cycle boundary. Either way the view covers every transaction
  /// accepted into the current cycle so far, so the commit/abort decision is
  /// identical to the sequential path's.
  StatusOr<Cycle> ValidateAndCommit(const ClientUpdateRequest& request, Cycle current_cycle);

  /// Enters staged (pooled) mode: `overlay` carries the MC effects of this
  /// cycle's accepted-but-not-folded transactions, `sink` receives each
  /// accepted uplink transaction in acceptance order. Both must outlive the
  /// validator's use; pass {nullptr, nullptr} to return to direct mode.
  void AttachStagedMode(McOverlay* overlay, std::function<void(ServerTxn&&)> sink) {
    overlay_ = overlay;
    sink_ = std::move(sink);
  }

  size_t num_validated() const { return num_validated_; }
  size_t num_rejected() const { return num_rejected_; }

  /// Structured cause of the most recent rejection: the stale read (ob,
  /// read_cycle) and the conflicting commit stamp. Meaningful only
  /// immediately after ValidateAndCommit returned Aborted.
  const AbortInfo& last_reject() const { return last_reject_; }

 private:
  ServerTxnManager* manager_;
  McOverlay* overlay_ = nullptr;                 // staged mode, else nullptr
  std::function<void(ServerTxn&&)> sink_;        // staged mode accept path
  size_t num_validated_ = 0;
  size_t num_rejected_ = 0;
  AbortInfo last_reject_;
};

}  // namespace bcc

#endif  // BCC_SERVER_VALIDATOR_H_
