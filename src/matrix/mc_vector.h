// The reduced control vector shared by R-Matrix and Datacycle
// (Section 3.2.2, case (b): a single database-wide partition).
//
// MC(i) is the latest broadcast cycle in which a committed transaction wrote
// ob_i — equal to max_j C(i, j) of the full matrix (the maximizing column is
// j = i). One timestamp per object is broadcast next to the object.

#ifndef BCC_MATRIX_MC_VECTOR_H_
#define BCC_MATRIX_MC_VECTOR_H_

#include <span>

#include "common/cow_pages.h"
#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"

namespace bcc {

/// Per-object last-committed-write cycle vector. Copies share pages, so the
/// per-cycle snapshot of the server's vector is O(touched pages).
class McVector {
 public:
  explicit McVector(uint32_t num_objects) : mc_(num_objects) {}

  uint32_t num_objects() const { return mc_.size(); }
  Cycle At(ObjectId i) const { return mc_[i]; }
  void Set(ObjectId i, Cycle c) { mc_.Set(i, c); }
  /// The paged entries (snapshot cost accounting and tests).
  const CowPages<Cycle>& pages() const { return mc_; }

  /// Registers a committed transaction: every written object's entry moves
  /// to the commit cycle. (Reads do not change the vector.)
  void ApplyCommit(std::span<const ObjectId> write_set, Cycle commit_cycle) {
    for (ObjectId w : write_set) mc_.Set(w, commit_cycle);
  }

  friend bool operator==(const McVector& a, const McVector& b) { return a.mc_ == b.mc_; }

 private:
  CowPages<Cycle> mc_;
};

/// Datacycle read condition (ensures serializability):
///   for all (ob_i, cycle) in R_t : MC(i) < cycle
/// i.e. nothing the transaction has read was overwritten afterwards.
bool DatacycleReadCondition(const McVector& mc, std::span<const ReadRecord> reads);

/// R-Matrix read condition (Section 3.2.2), for reading ob_j by a
/// transaction whose first read happened in cycle `first_read_cycle`:
///   (for all (ob_i, cycle) in R_t : MC(i) < cycle)
///   OR  MC(j) < first_read_cycle
/// Accept if nothing read so far changed, or the object now being read has
/// not changed since the transaction began — Theorem 9: this accepts only
/// schedules APPROX accepts.
bool RMatrixReadCondition(const McVector& mc, std::span<const ReadRecord> reads, ObjectId j,
                          Cycle first_read_cycle);

}  // namespace bcc

#endif  // BCC_MATRIX_MC_VECTOR_H_
