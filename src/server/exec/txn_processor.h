// Thread-pooled server update engine (DESIGN.md §4h, ROADMAP item 3).
//
// The paper serializes server update transactions through one sequential
// path before their commits are folded into the F-Matrix broadcast. The
// TxnProcessor lifts that cap: a StaticThreadPool's executors (the calling
// thread included) run one broadcast cycle's update transactions
// concurrently under OCC (backward validation at commit) and return the
// committed transactions *in their serialization order*. The paper needs
// only some serializable local order (§3.2.1), so one optimistic scheme is
// enough. Folding that order into a ServerTxnManager at the cycle boundary
// (FoldIntoManager) reuses the cycle-fused FMatrix::ApplyCommitBatch
// maintenance unchanged, so the broadcast-side pipeline never sees how the
// order was produced.
//
// Every committed transaction records which writer each of its reads
// observed; VerifySerializable replays the serialization order through a
// sequential last-writer table and confirms every observation — an exact
// serializability oracle (view equivalence to the serial execution). Tests
// additionally rebuild the real interleaved history from per-operation
// sequence numbers and feed it to the src/cc checkers.

#ifndef BCC_SERVER_EXEC_TXN_PROCESSOR_H_
#define BCC_SERVER_EXEC_TXN_PROCESSOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "history/history.h"
#include "history/operation.h"
#include "server/exec/scheme.h"
#include "server/exec/static_thread_pool.h"
#include "server/txn_manager.h"

namespace bcc {

/// Which committed writer a read observed (the view the transaction saw).
struct ReadObservation {
  ObjectId object = 0;
  TxnId writer = kInitTxn;
};

/// One operation of a committed transaction stamped with its global order
/// (a fresh sequence number drawn at the instant the operation took effect
/// under the scheme's synchronization). Only the successful attempt's
/// operations are recorded; died/invalidated attempts leave no trace.
struct SeqOp {
  uint64_t seq = 0;
  Operation op{OpType::kRead, kNoTxn, 0};
};

/// A server update transaction the processor committed.
struct CommittedServerTxn {
  ServerTxn txn;
  /// Position in the serialization order (the commit-point order). Unique;
  /// ascending = the order to replay.
  uint64_t commit_seq = 0;
  std::vector<ReadObservation> reads;
  /// Interleaved-history trace: this transaction's reads, writes, and commit
  /// marker with their global sequence numbers (BuildInterleavedHistory).
  std::vector<SeqOp> ops;
  /// Failed OCC validations this transaction survived before committing.
  uint32_t aborts = 0;
};

/// Cumulative processor counters (monotone across batches).
struct TxnProcessorStats {
  uint64_t committed = 0;
  uint64_t batches = 0;
  uint64_t occ_validation_aborts = 0;  ///< OCC backward-validation failures
};

/// Concurrent executor for server update transactions.
class TxnProcessor {
 public:
  /// `num_workers` executors, the calling thread included: the pool spawns
  /// num_workers − 1 threads. One executor (num_workers <= 1, or scheme ==
  /// kSequential) runs every batch inline on the calling thread, in input
  /// order.
  TxnProcessor(uint32_t num_objects, UpdateScheme scheme, uint32_t num_workers);

  TxnProcessor(const TxnProcessor&) = delete;
  TxnProcessor& operator=(const TxnProcessor&) = delete;

  UpdateScheme scheme() const { return scheme_; }
  uint32_t num_workers() const { return pool_.num_workers(); }
  uint32_t num_objects() const { return num_objects_; }

  /// Executes the batch (one broadcast cycle's update transactions)
  /// concurrently, in one hand-off to the pool, and blocks until every
  /// transaction committed — aborted attempts are retried by the scheme
  /// until they succeed, so the result always holds exactly the input
  /// transactions, sorted by commit_seq (their serialization order).
  /// Committed state persists across batches. Transaction ids must be unique
  /// and nonzero.
  std::vector<CommittedServerTxn> ExecuteBatch(std::span<const ServerTxn> txns);

  /// Executes `txns` inline on the calling thread, in the given order,
  /// through the same scheme state as ExecuteBatch. With no concurrent batch
  /// in flight there is no conflicting contender, so every transaction
  /// commits on its first attempt and the serialization order equals the
  /// input order. This is how accepted client uplink transactions enter the
  /// processor: validated in acceptance order, they must also *commit* in
  /// acceptance order — running them as a serial prefix before the cycle's
  /// pooled server batch pins their fold-position reads to exactly the
  /// prior-cycle state the client observed over broadcast. commit_seq stays
  /// globally ascending across ExecuteSerial and ExecuteBatch calls. Must
  /// not overlap an ExecuteBatch on another thread.
  std::vector<CommittedServerTxn> ExecuteSerial(std::span<const ServerTxn> txns);

  /// Runs `body(shard)` for shards [0, num_shards) on the pool's executors
  /// and blocks until all complete (inline at one executor). The shard
  /// bodies must be mutually independent. Used by the pooled-apply
  /// fold to parallelize ApplyCommitBatch column partitions.
  void RunShards(uint32_t num_shards, const std::function<void(uint32_t)>& body);

  const TxnProcessorStats& stats() const { return stats_; }

  /// Test-only interleaving hook, invoked at scheme stage boundaries
  /// ("start", "occ:read-done", "occ:install", "commit") with no internal
  /// latch held, which is what lets tests build contention windows. Set
  /// before the first ExecuteBatch and never change it while a batch runs.
  using TestHook = std::function<void(TxnId txn, std::string_view stage)>;
  void set_test_hook(TestHook hook) { hook_ = std::move(hook); }

 private:
  /// Per-executor temporaries, reused across attempts and batches (each
  /// executor runs one transaction at a time, so they need no latch; one
  /// cache line each, so executors never share one).
  struct alignas(64) Scratch {
    std::vector<uint64_t> read_versions;  // OCC: install version per read
  };

  void RunToCommit(const ServerTxn& txn, CommittedServerTxn& out, Scratch& scratch);
  bool TryOcc(const ServerTxn& txn, CommittedServerTxn& out, std::vector<uint64_t>& read_versions);
  void RunSequential(const ServerTxn& txn, CommittedServerTxn& out);

  const uint32_t num_objects_;
  const UpdateScheme scheme_;
  StaticThreadPool pool_;
  std::vector<Scratch> scratch_;  // one per executor, indexed by executor id

  // Committed state: the last committed writer per object, guarded by
  // occ_mu_ under OCC.
  std::vector<TxnId> last_writer_;
  std::shared_mutex occ_mu_;           // OCC: shared=read, unique=validate+install
  std::vector<uint64_t> occ_version_;  // OCC per-object install counter

  std::atomic<uint64_t> next_seq_{1};  // commit_seq
  std::atomic<uint64_t> next_op_seq_{1};

  TxnProcessorStats stats_;  // batch-level fields updated at barriers
  std::atomic<uint64_t> occ_validation_aborts_{0};

  TestHook hook_;
};

/// Replays `committed` (ascending commit_seq) into `manager` at broadcast
/// cycle `cycle` — the bridge from the serialization order into the
/// cycle-fused F-Matrix and store maintenance.
void FoldIntoManager(std::span<const CommittedServerTxn> committed, ServerTxnManager& manager,
                     Cycle cycle);

/// Exact serializability oracle: replays the serialization order through a
/// sequential last-writer table and verifies every recorded read observation
/// (plus commit_seq uniqueness). `committed` may span several batches as
/// long as it is ascending by commit_seq.
Status VerifySerializable(uint32_t num_objects, std::span<const CommittedServerTxn> committed);

/// Rebuilds the totally ordered history the committed transactions actually
/// executed, by sorting every recorded operation by its global sequence
/// number. This single-version interleaving must be conflict serializable
/// (the property suite enforces it).
History BuildInterleavedHistory(std::span<const CommittedServerTxn> committed);

}  // namespace bcc

#endif  // BCC_SERVER_EXEC_TXN_PROCESSOR_H_
