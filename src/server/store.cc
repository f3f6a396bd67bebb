#include "server/store.h"

#include <cassert>

namespace bcc {

VersionedStore::VersionedStore(uint32_t num_objects)
    : committed_(num_objects), staged_(num_objects) {}

const ObjectVersion& VersionedStore::ReadForStaging(ObjectId ob) const {
  assert(ob < num_objects());
  if (staged_[ob].has_value()) return *staged_[ob];
  return committed_[ob];
}

void VersionedStore::StageWrite(ObjectId ob, TxnId writer) {
  assert(ob < num_objects());
  if (!staged_[ob].has_value()) staged_order_.push_back(ob);
  staged_[ob] = ObjectVersion{next_value_++, writer, /*cycle=*/0};
}

void VersionedStore::CommitStaged(Cycle commit_cycle) {
  for (ObjectId ob : staged_order_) {
    ObjectVersion v = *staged_[ob];
    v.cycle = commit_cycle;
    committed_.Set(ob, v);
    staged_[ob].reset();
  }
  staged_order_.clear();
}

void VersionedStore::AbortStaged() {
  for (ObjectId ob : staged_order_) staged_[ob].reset();
  staged_order_.clear();
}

}  // namespace bcc
