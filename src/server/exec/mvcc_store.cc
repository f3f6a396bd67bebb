#include "server/exec/mvcc_store.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bcc {

namespace {

/// Index of the newest version with version_ts <= ts. Chains always hold the
/// initial version (ts 0), so a result exists for every ts.
size_t VisibleIndex(const std::vector<MvccVersion>& chain, uint64_t ts) {
  size_t lo = 0;
  for (size_t i = chain.size(); i-- > 0;) {
    if (chain[i].version_ts <= ts) {
      lo = i;
      break;
    }
  }
  return lo;
}

}  // namespace

MvccStore::MvccStore(uint32_t num_objects) : chains_(num_objects) {
  for (auto& chain : chains_) chain.push_back(MvccVersion{});  // t0 writes everything
}

MvccStore::ReadResult MvccStore::Read(ObjectId ob, uint64_t ts) {
  std::lock_guard<std::mutex> lock(stripes_[StripeOf(ob)].mu);
  std::vector<MvccVersion>& chain = chains_[ob];
  MvccVersion& v = chain[VisibleIndex(chain, ts)];
  v.max_read_ts = std::max(v.max_read_ts, ts);
  return ReadResult{v.writer, v.version_ts};
}

bool MvccStore::CommitWrites(std::span<const ObjectId> write_set, TxnId writer, uint64_t ts) {
  assert(ts > 0 && "timestamp 0 is reserved for the initial versions");
  // Latch every stripe the write set touches, each once, in ascending stripe
  // order (commits therefore never deadlock against each other, and readers
  // latch only a single stripe).
  static_assert(kStripes <= 64, "a commit's stripe set is one 64-bit mask");
  uint64_t mask = 0;
  for (ObjectId ob : write_set) mask |= uint64_t{1} << StripeOf(ob);
  for (uint64_t m = mask; m != 0; m &= m - 1) stripes_[std::countr_zero(m)].mu.lock();

  bool ok = true;
  for (ObjectId ob : write_set) {
    const std::vector<MvccVersion>& chain = chains_[ob];
    const MvccVersion& visible = chain[VisibleIndex(chain, ts)];
    // A reader younger than ts already observed the state this write would
    // replace for it: installing would retroactively invalidate that read.
    if (visible.max_read_ts > ts) {
      ok = false;
      break;
    }
  }
  if (ok) {
    for (ObjectId ob : write_set) {
      std::vector<MvccVersion>& chain = chains_[ob];
      // Install in timestamp position; commits usually carry the newest ts,
      // so the scan from the back is O(1) in steady state.
      auto it = chain.end();
      while (it != chain.begin() && std::prev(it)->version_ts > ts) --it;
      if (chain.size() == 1) stripes_[StripeOf(ob)].multi_version.push_back(ob);
      chain.insert(it, MvccVersion{ts, 0, writer});
    }
  }

  for (uint64_t m = mask; m != 0; m &= m - 1) stripes_[std::countr_zero(m)].mu.unlock();
  return ok;
}

uint64_t MvccStore::CollectGarbage(uint64_t safe_ts) {
  uint64_t pruned = 0;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    size_t kept = 0;
    for (ObjectId ob : stripe.multi_version) {
      std::vector<MvccVersion>& chain = chains_[ob];
      const size_t keep_from = VisibleIndex(chain, safe_ts);
      if (keep_from > 0) {
        chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(keep_from));
        pruned += keep_from;
      }
      // A chain still holding versions above safe_ts stays listed.
      if (chain.size() > 1) stripe.multi_version[kept++] = ob;
    }
    chains_visited_ += stripe.multi_version.size();
    stripe.multi_version.resize(kept);
  }
  versions_pruned_ += pruned;
  return pruned;
}

size_t MvccStore::VersionCount(ObjectId ob) {
  std::lock_guard<std::mutex> lock(stripes_[StripeOf(ob)].mu);
  return chains_[ob].size();
}

}  // namespace bcc
