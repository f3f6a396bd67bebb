// Cycle-epoch MC-vector overlay: the side buffer that keeps the uplink
// validator consistent while staged server updates are in flight (DESIGN.md
// §4i).
//
// MC(ob) is the commit cycle of ob's committed version, values[ob].cycle in
// the manager's store. With the sequential update path the store is
// written eagerly, so the validator's backward check (`MC(ob) >= read
// cycle`?) sees every commit that precedes the uplink transaction in the
// serialization order. A staged cycle's commits reach the manager only at
// the fold, so every transaction accepted into the current cycle — the
// cycle's server transactions when CycleServer stages them, accepted
// uplinks when they validate — stages its write set here, and the validator
// reads max(store.Committed(ob).cycle, overlay.At(ob)). Staged entries
// stamp the current cycle, which is >= any store stamp, so the merge equals
// the stamp the sequential path would show. The fold publishes the staged
// effects for real and Clear() retires the epoch in O(1).
//
// Single-writer: the owner serializes every stage, clear and read (the
// concurrent engine through its validator desk mutex); no locking here.

#ifndef BCC_SERVER_MC_OVERLAY_H_
#define BCC_SERVER_MC_OVERLAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/object_id.h"

namespace bcc {

/// Per-object staged cycle stamps with O(1) epoch retirement.
class McOverlay {
 public:
  explicit McOverlay(uint32_t num_objects) : stamp_(num_objects, 0), tag_(num_objects, 0) {}

  /// Stages a transaction accepted into the current cycle: every written
  /// object's staged entry moves to `commit_cycle`.
  void Stage(std::span<const ObjectId> write_set, Cycle commit_cycle) {
    for (ObjectId w : write_set) {
      stamp_[w] = commit_cycle;
      tag_[w] = epoch_;
    }
  }

  /// Staged commit cycle for `ob`, or 0 when nothing staged it this epoch
  /// (0 never dominates a real MC entry: cycle 0 is the imaginary initial
  /// write, already below every committed stamp).
  Cycle At(ObjectId ob) const { return tag_[ob] == epoch_ ? stamp_[ob] : 0; }

  /// Retires every staged entry (the fold point published them for real).
  void Clear() { ++epoch_; }

 private:
  std::vector<Cycle> stamp_;
  std::vector<uint64_t> tag_;
  uint64_t epoch_ = 1;
};

}  // namespace bcc

#endif  // BCC_SERVER_MC_OVERLAY_H_
