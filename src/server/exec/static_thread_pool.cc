#include "server/exec/static_thread_pool.h"

namespace bcc {

StaticThreadPool::StaticThreadPool(uint32_t num_workers) {
  const uint32_t spawned = num_workers <= 1 ? 0 : num_workers - 1;
  threads_.reserve(spawned);
  for (uint32_t t = 0; t < spawned; ++t) {
    threads_.emplace_back([this, executor = t + 1] { WorkerLoop(executor); });
  }
}

StaticThreadPool::~StaticThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void StaticThreadPool::RunErased(size_t count, void* ctx, Thunk fn) {
  const Batch batch{fn, ctx, count};
  if (threads_.empty() || count <= 1) {
    for (size_t i = 0; i < count; ++i) fn(ctx, i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    next_.store(1, std::memory_order_relaxed);  // index 0 is the caller's
    open_ = true;
    ++generation_;
  }
  wake_cv_.notify_all();
  fn(ctx, 0, 0);
  Drain(batch, 0);
  // Every index is claimed. Threads that joined may still be running theirs;
  // once none is inside, close the batch under the latch so a thread that
  // wakes late finds nothing to join (and never touches `batch` or next_
  // after this frame's body is gone).
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_batch_ == 0; });
  open_ = false;
}

void StaticThreadPool::Drain(const Batch& batch, uint32_t executor) {
  for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < batch.count;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    batch.fn(batch.ctx, i, executor);
  }
}

void StaticThreadPool::WorkerLoop(uint32_t executor) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stopping_ || (open_ && generation_ != seen); });
    if (stopping_) return;
    seen = generation_;
    const Batch batch = batch_;
    ++in_batch_;
    lock.unlock();
    Drain(batch, executor);
    lock.lock();
    if (--in_batch_ == 0) done_cv_.notify_one();
  }
}

}  // namespace bcc
