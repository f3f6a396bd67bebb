// The cycle boundary of the concurrent engine: one hand-off per thread per
// broadcast cycle.
//
// Theorem 1 needs only that every read of cycle k sees the state broadcast
// at the start of cycle k, so the engine needs two signals per cycle: "every
// client finished phase k" and "cycle k+1 is published". A client signals
// the first without waiting (Arrive) and then sleeps once, until the second
// (AwaitPublish). The server waits for the arrivals, runs its exclusive
// section, and publishes (Publish), waking clients only if one is asleep.
//
// Memory ordering: arrivals are acq_rel RMWs on one word, which the server
// reads with acquire, so every client's phase-k writes happen before the
// exclusive section; the publish is a release store the clients read with
// acquire, so the exclusive section's writes happen before phase k+1. Each
// word carries its own sleeper bit, set by the thread about to sleep and
// seen by the thread that changes the word, so no wake is lost and none is
// issued while nobody sleeps.

#ifndef BCC_SIM_CYCLE_GATE_H_
#define BCC_SIM_CYCLE_GATE_H_

#include <atomic>
#include <cstdint>

namespace bcc {

class CycleGate {
 public:
  /// A gate for `clients` client threads (at least 1, below 2^31).
  explicit CycleGate(uint32_t clients);

  CycleGate(const CycleGate&) = delete;
  CycleGate& operator=(const CycleGate&) = delete;

  // Client side. Each client calls Arrive, then AwaitPublish, once per
  // phase; phases count from 1.

  /// Marks this client's phase done. Never blocks.
  void Arrive();
  /// Blocks until the server has published the end of phase `phase`.
  void AwaitPublish(uint64_t phase);

  // Server side, once per phase.

  /// Blocks until every client has arrived in the current phase. On return
  /// the server holds the exclusive section: no client runs until Publish.
  void AwaitArrivals();
  /// Ends the exclusive section and releases every client into the next
  /// phase.
  void Publish();

 private:
  static constexpr uint32_t kServerAsleep = 1u << 31;  ///< in arrivals_
  static constexpr uint32_t kClientAsleep = 1u;        ///< in epoch_

  const uint32_t clients_;
  /// Clients arrived in the current phase, plus kServerAsleep.
  alignas(64) std::atomic<uint32_t> arrivals_{0};
  /// Phases published so far, shifted left by one, plus kClientAsleep.
  alignas(64) std::atomic<uint32_t> epoch_{0};
};

}  // namespace bcc

#endif  // BCC_SIM_CYCLE_GATE_H_
