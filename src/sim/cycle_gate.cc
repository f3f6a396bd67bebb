#include "sim/cycle_gate.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cassert>
#include <climits>

namespace bcc {
namespace {

// Server spin before it sleeps on the arrivals word, in pause iterations
// (about 1 us at 15-20 ns per pause on a 4-vCPU Xeon VM). On `uplink`
// shaped runs, spins of 0 to 16384 left the server's hand-off CPU within
// 4.4-6.2 us per cycle and 64 was lowest or tied; end to end no spin
// length stood out of the run-to-run noise.
constexpr int kServerSpin = 64;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// The one place the gate sleeps and wakes: a raw futex (the engine, like
// the net tier, is Linux-only). Clients then sleep at once, where
// std::atomic::wait (gcc 12) first spins and yields; their hand-off CPU
// measured 3.7-4.0 us per cycle against 5.8-6.5 us with the portable calls.
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t), "a futex word is 32 bits");

// Sleeps while `word` holds `expected` (returns at once otherwise, or on any
// wake). Process-private futexes: the gate never crosses a process.
void SleepWhile(std::atomic<uint32_t>& word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAIT_PRIVATE, expected, nullptr,
          nullptr, 0);
}

void WakeAll(std::atomic<uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr,
          nullptr, 0);
}

}  // namespace

CycleGate::CycleGate(uint32_t clients) : clients_(clients) {
  assert(clients > 0 && clients < kServerAsleep);
}

void CycleGate::Arrive() {
  const uint32_t before = arrivals_.fetch_add(1, std::memory_order_acq_rel);
  if ((before & ~kServerAsleep) + 1 == clients_ && (before & kServerAsleep) != 0) {
    WakeAll(arrivals_);
  }
}

void CycleGate::AwaitPublish(uint64_t phase) {
  const uint32_t published = static_cast<uint32_t>(phase) << 1;
  uint32_t word = epoch_.load(std::memory_order_acquire);
  while ((word & ~kClientAsleep) != published) {
    if ((word & kClientAsleep) == 0 &&
        !epoch_.compare_exchange_weak(word, word | kClientAsleep, std::memory_order_acquire)) {
      continue;  // `word` was reloaded
    }
    SleepWhile(epoch_, word | kClientAsleep);
    word = epoch_.load(std::memory_order_acquire);
  }
}

void CycleGate::AwaitArrivals() {
  uint32_t word = arrivals_.load(std::memory_order_acquire);
  for (int i = 0; i < kServerSpin && word != clients_; ++i) {
    CpuRelax();
    word = arrivals_.load(std::memory_order_acquire);
  }
  while ((word & ~kServerAsleep) != clients_) {
    if ((word & kServerAsleep) == 0 &&
        !arrivals_.compare_exchange_weak(word, word | kServerAsleep, std::memory_order_acquire)) {
      continue;  // `word` was reloaded
    }
    SleepWhile(arrivals_, word | kServerAsleep);
    word = arrivals_.load(std::memory_order_acquire);
  }
}

void CycleGate::Publish() {
  // No client touches arrivals_ until it sees the new epoch, which the
  // release below orders after this reset.
  arrivals_.store(0, std::memory_order_relaxed);
  const uint32_t next = (epoch_.load(std::memory_order_relaxed) & ~kClientAsleep) + 2;
  if ((epoch_.exchange(next, std::memory_order_release) & kClientAsleep) != 0) WakeAll(epoch_);
}

}  // namespace bcc
