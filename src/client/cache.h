// Quasi-caching with weak currency bounds (Section 3.3).
//
// If a client's currency requirement is "data no older than T time units",
// objects read off the broadcast can be cached and served locally until
// they age out — no communication needed for invalidation. To keep cached
// reads mutually consistent with fresh reads, an F-Matrix entry stores the
// control column that accompanied the object when it was cached;
// ReadOnlyTxnProtocol::ReadFromCache validates against it. An R-Matrix
// entry stores nothing extra: the cached value is served only while the
// latest on-air MC stamp shows it is still current.

#ifndef BCC_CLIENT_CACHE_H_
#define BCC_CLIENT_CACHE_H_

#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "des/event_queue.h"
#include "server/broadcast_server.h"

namespace bcc {

/// One cached object with its validation baggage.
struct CacheEntry {
  ObjectVersion version;      ///< the cached committed version
  Cycle cycle = 0;            ///< broadcast cycle the value was read in
  SimTime cached_time = 0;    ///< wall-clock (bit-unit) time it was cached
  std::vector<Cycle> column;  ///< F-Matrix column for the object (absolute)
};

/// LRU cache with per-object currency bounds. Entries older than their
/// bound are invalidated lazily at lookup; invalidation is purely local
/// (the broadcast medium is never consulted), as the paper requires.
class QuasiCache {
 public:
  /// `capacity` = 0 means unbounded. `default_currency_bound` is T in
  /// bit-units; entries older than T are stale.
  QuasiCache(size_t capacity, SimTime default_currency_bound);

  /// Per-client/per-object currency tailoring (Section 3.3).
  void SetCurrencyBound(ObjectId ob, SimTime bound);
  SimTime CurrencyBoundFor(ObjectId ob) const;

  /// Returns the entry if present and younger than its currency bound at
  /// `now`; stale entries are dropped and counted.
  std::optional<CacheEntry> Lookup(ObjectId ob, SimTime now);

  /// Inserts/overwrites; evicts the least recently used entry when full.
  void Insert(ObjectId ob, CacheEntry entry);

  void Clear();

  size_t size() const { return map_.size(); }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t stale_drops() const { return stale_drops_; }
  size_t evictions() const { return evictions_; }

 private:
  struct Node {
    ObjectId ob;
    CacheEntry entry;
  };

  size_t capacity_;
  SimTime default_bound_;
  std::unordered_map<ObjectId, SimTime> per_object_bound_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<ObjectId, std::list<Node>::iterator> map_;
  size_t hits_ = 0, misses_ = 0, stale_drops_ = 0, evictions_ = 0;
};

}  // namespace bcc

#endif  // BCC_CLIENT_CACHE_H_
