#include "server/validator.h"

#include <algorithm>

#include "common/format.h"

namespace bcc {

StatusOr<Cycle> UpdateValidator::ValidateAndCommit(const ClientUpdateRequest& request,
                                                   Cycle current_cycle) {
  // A read of (ob, cycle) observed the committed version as of the beginning
  // of `cycle`. It is still current iff the last committed write to ob
  // happened before `cycle`: MC(ob), the committed version's cycle stamp.
  // In staged mode the overlay supplies the MC effects of this cycle's
  // accepted-but-not-folded transactions, so the merged view equals the
  // eagerly written store of the sequential path.
  for (const ReadRecord& r : request.reads) {
    Cycle last_write = manager_->store().Committed(r.object).cycle;
    if (overlay_ != nullptr) last_write = std::max(last_write, overlay_->At(r.object));
    if (last_write >= r.cycle) {
      ++num_rejected_;
      last_reject_ = {AbortCause::kUplinkReject, r.object, r.object, r.cycle, last_write};
      return Status::Aborted(
          StrFormat("ob%u read at cycle %llu was overwritten at cycle %llu", r.object,
                    static_cast<unsigned long long>(r.cycle),
                    static_cast<unsigned long long>(last_write)));
    }
  }

  ServerTxn txn;
  txn.id = request.id;
  txn.read_set.reserve(request.reads.size());
  for (const ReadRecord& r : request.reads) txn.read_set.push_back(r.object);
  txn.write_set = request.writes;
  if (overlay_ != nullptr) {
    overlay_->Stage(txn.write_set, current_cycle);
    sink_(std::move(txn));
  } else {
    manager_->Commit(txn, current_cycle);
  }
  ++num_validated_;
  return current_cycle;
}

}  // namespace bcc
