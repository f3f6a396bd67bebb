#include "server/exec/static_thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace bcc {
namespace {

class StaticThreadPoolTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StaticThreadPoolTest, ReportsTheCallerAsOneOfItsExecutors) {
  StaticThreadPool pool(GetParam());
  EXPECT_EQ(pool.num_workers(), GetParam());
}

TEST_P(StaticThreadPoolTest, EveryIndexRunsExactlyOnce) {
  const uint32_t w = GetParam();
  StaticThreadPool pool(w);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{w}, size_t{10} * w}) {
    std::vector<std::atomic<uint32_t>> runs(count);
    pool.Run(count, [&](size_t i, uint32_t executor) {
      ASSERT_LT(i, count);
      ASSERT_LT(executor, w);
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(runs[i].load(), 1u) << "count " << count;
  }
}

TEST_P(StaticThreadPoolTest, AtMostWThreadsRunABatchAndTheCallerIsOne) {
  const uint32_t w = GetParam();
  StaticThreadPool pool(w);
  const size_t count = 10 * size_t{w};
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::set<uint32_t> executors;
  std::atomic<bool> caller_ran{false};
  const std::thread::id caller = std::this_thread::get_id();
  pool.Run(count, [&](size_t, uint32_t executor) {
    // Executor 0 is the calling thread, and only it.
    EXPECT_EQ(executor == 0, std::this_thread::get_id() == caller);
    if (executor == 0) caller_ran.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
    executors.insert(executor);
  });
  EXPECT_LE(threads.size(), w);
  EXPECT_EQ(threads.size(), executors.size());
  // The caller keeps index 0 for itself, so it runs in every batch.
  EXPECT_TRUE(caller_ran.load());
  EXPECT_EQ(threads.count(caller), 1u);
}

TEST_P(StaticThreadPoolTest, BackToBackBatchesEachRunCompletely) {
  const uint32_t w = GetParam();
  StaticThreadPool pool(w);
  std::atomic<uint64_t> sum{0};
  uint64_t expected = 0;
  for (size_t batch = 0; batch < 200; ++batch) {
    const size_t count = batch % (3 * size_t{w} + 2);
    std::vector<uint8_t> ran(count, 0);  // each slot written by one executor
    pool.Run(count, [&](size_t i, uint32_t) {
      ran[i] = 1;
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    // Run returned, so every write of this batch is visible here.
    for (size_t i = 0; i < count; ++i) ASSERT_EQ(ran[i], 1) << "batch " << batch;
    expected += count * (count + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(StaticThreadPoolInlineTest, SingleExecutorRunsInlineInIndexOrder) {
  StaticThreadPool pool(1);
  std::vector<size_t> order;
  pool.Run(16, [&](size_t i, uint32_t executor) {
    EXPECT_EQ(executor, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_P(StaticThreadPoolTest, DestroysCleanlyWithNoBatchInFlight) {
  { StaticThreadPool never_ran(GetParam()); }
  StaticThreadPool ran_once(GetParam());
  std::atomic<uint32_t> runs{0};
  ran_once.Run(4 * size_t{GetParam()},
               [&](size_t, uint32_t) { runs.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(runs.load(), 4 * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Executors, StaticThreadPoolTest, ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           std::string name = "W";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace bcc
