// A fixed set of batch executors for the parallel update engine. One call,
// Run(count, body), hands a whole batch over: the caller publishes it once,
// and every executor — the calling thread plus the W − 1 pool threads —
// claims indices from one shared atomic counter until the batch is
// exhausted. Pool threads park between batches; there is no per-task queue,
// allocation or wake-up. At W = 1 no thread exists and Run executes the
// batch inline in index order. Update transactions are short and uniform,
// so one hand-off per batch keeps the scheduling overhead off the profile
// and the threading model easy to reason about under TSan.

#ifndef BCC_SERVER_EXEC_STATIC_THREAD_POOL_H_
#define BCC_SERVER_EXEC_STATIC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace bcc {

/// W executors running one batch at a time; the thread calling Run is one of
/// them. Run is not reentrant and must not be called from two threads at
/// once (the engines call it from the server thread only).
class StaticThreadPool {
 public:
  /// `num_workers` executors (0 is treated as 1): spawns num_workers − 1
  /// threads.
  explicit StaticThreadPool(uint32_t num_workers);
  /// Joins the threads. Must not race a Run in flight.
  ~StaticThreadPool();

  StaticThreadPool(const StaticThreadPool&) = delete;
  StaticThreadPool& operator=(const StaticThreadPool&) = delete;

  /// Executors, the calling thread included.
  uint32_t num_workers() const { return static_cast<uint32_t>(threads_.size()) + 1; }

  /// Runs `body(index, executor)` once for every index in [0, count) and
  /// returns when all have finished. `executor` in [0, num_workers())
  /// identifies the executor running the call — 0 is the calling thread —
  /// so bodies can reuse per-executor scratch; no two concurrent calls share
  /// an executor id. The caller always runs index 0 itself. With one
  /// executor (or count <= 1) the indices run inline, in ascending order.
  template <typename Body>
  void Run(size_t count, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    RunErased(count, const_cast<void*>(static_cast<const void*>(&body)),
              [](void* ctx, size_t index, uint32_t executor) {
                (*static_cast<Fn*>(ctx))(index, executor);
              });
  }

 private:
  using Thunk = void (*)(void* ctx, size_t index, uint32_t executor);
  struct Batch {
    Thunk fn = nullptr;
    void* ctx = nullptr;
    size_t count = 0;
  };

  void RunErased(size_t count, void* ctx, Thunk fn);
  /// Claims and runs indices of `batch` until the counter passes its end.
  void Drain(const Batch& batch, uint32_t executor);
  void WorkerLoop(uint32_t executor);

  std::mutex mu_;
  std::condition_variable wake_cv_;  // threads: a batch opened, or stopping
  std::condition_variable done_cv_;  // caller: the last joined thread left
  Batch batch_;                      // the open batch (guarded by mu_)
  bool open_ = false;                // a batch is published and not yet closed
  uint64_t generation_ = 0;          // bumped per published batch
  uint32_t in_batch_ = 0;            // threads that joined the open batch and not yet left
  bool stopping_ = false;
  std::atomic<size_t> next_{0};      // the open batch's next unclaimed index
  std::vector<std::thread> threads_;
};

}  // namespace bcc

#endif  // BCC_SERVER_EXEC_STATIC_THREAD_POOL_H_
