#include "matrix/mc_vector.h"

namespace bcc {

bool DatacycleReadCondition(const McVector& mc, std::span<const ReadRecord> reads) {
  for (const ReadRecord& r : reads) {
    if (mc.At(r.object) >= r.cycle) return false;
  }
  return true;
}

bool RMatrixReadCondition(const McVector& mc, std::span<const ReadRecord> reads, ObjectId j,
                          Cycle first_read_cycle) {
  if (DatacycleReadCondition(mc, reads)) return true;
  return mc.At(j) < first_read_cycle;
}

}  // namespace bcc
