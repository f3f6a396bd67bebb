// Event-tracing and abort-attribution layer (observability subsystem).
//
// Both engines emit the same typed events — cycle start, broadcast tx /
// frame rx, read, validation, commit, abort, desync/resync, stall — into
// per-track fixed-capacity ring buffers. A track corresponds to one logical
// thread (the server, or one client): in the concurrent engine every track
// is written by exactly one OS thread and tracks are registered before the
// worker threads spawn, so recording needs no locks and is TSan-clean by
// construction. When no tracer is attached, every call site guards on a
// null ring pointer, so tracing disabled is a branch-on-null — it consumes
// no RNG draws and never perturbs timing or decisions (the observer-effect
// contract checked by tests/obs_sim_test.cc).
//
// Abort attribution: every abort carries a structured cause captured at the
// exact check that failed (client/read_txn.cc, server/validator.cc) or the
// loss/desync condition that preceded it (client/receiver.cc,
// client/delta_tracker.cc). Aborts are tallied per cause into an
// AbortBreakdown, reported in SimSummary/ConcurrentSummary and required to
// be bit-identical across engines by CrossCheckEngines.

#ifndef BCC_OBS_TRACE_H_
#define BCC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cycle_stamp.h"
#include "des/event_queue.h"
#include "history/object_id.h"

namespace bcc {

/// The event taxonomy. kCycleStart events carry the cycle's duration and
/// render as Perfetto slices; everything else is an instant on its track.
enum class TraceEventType : uint8_t {
  kCycleStart,   ///< server: one broadcast cycle (duration = cycle length)
  kBroadcastTx,  ///< server: control/frames put on the air (value = bits/frames)
  kFrameRx,      ///< client: one cycle's frames arrived (value = delivered)
  kRead,         ///< client: a read passed its read condition
  kValidation,   ///< server: an uplink commit validated (value = 1 ok / 0 reject)
  kCommit,       ///< server txn committed, or client txn completed (value = restarts)
  kAbort,        ///< client: an attempt aborted (abort field holds the cause)
  kDesync,       ///< client: delta tracker / receiver lost synchronization
  kResync,       ///< client: synchronization recovered
  kStall,        ///< client: read deferred a cycle (value: see kStall* codes)
};

std::string_view TraceEventTypeName(TraceEventType type);

/// kStall payloads: what forced the read to wait for the next cycle.
inline constexpr uint64_t kStallChannelLoss = 0;  ///< lost frame (channel mode)
inline constexpr uint64_t kStallDeltaDesync = 1;  ///< unusable delta tracker

/// Why a transaction attempt aborted. Causes are mutually exclusive per
/// abort; precedence when several conditions overlap is documented at the
/// one classification site, ClientSession::Abort (client/session.h).
enum class AbortCause : uint8_t {
  kNone = 0,         ///< no abort recorded
  kControlConflict,  ///< F-family C(i, j) >= read cycle fired
  kMcConflict,       ///< Datacycle/R-Matrix MC(i) >= read cycle fired
  kChannelLoss,      ///< abort of an attempt that stalled on frame loss
  kDesyncStall,      ///< abort of an attempt that stalled on tracker desync
  kUplinkReject,     ///< server-side validation rejected an update txn
  kCensored,         ///< force-completed by the restart guard
};

inline constexpr size_t kNumAbortCauses = 7;

std::string_view AbortCauseName(AbortCause cause);

/// Structured cause of one abort, captured at the failing check. For
/// kControlConflict: reading ob_j failed because C(ob_i, ob_j) = c_ij >=
/// read_cycle (the cycle ob_i was read in). For kMcConflict: MC(ob_i) =
/// c_ij >= read_cycle while reading ob_j. For kUplinkReject: the read of
/// ob_i at read_cycle was overwritten at cycle c_ij. Loss/desync causes
/// keep the fields of the control check that subsequently failed.
struct AbortInfo {
  AbortCause cause = AbortCause::kNone;
  ObjectId ob_i = 0;
  ObjectId ob_j = 0;
  Cycle read_cycle = 0;
  Cycle c_ij = 0;

  bool operator==(const AbortInfo&) const = default;
};

/// One trace event. `value` is a type-specific payload (bits broadcast,
/// frames delivered, restart count, stall kind); `abort` is meaningful for
/// kAbort only.
struct TraceEvent {
  TraceEventType type = TraceEventType::kRead;
  SimTime time = 0;
  SimTime duration = 0;  ///< > 0 renders as a slice; 0 as an instant
  Cycle cycle = 0;
  ObjectId object = 0;
  uint64_t value = 0;
  AbortInfo abort;
};

/// Per-cause abort tally. The unit of the cross-engine identity check:
/// two engines that made identical decisions on identical seeds must
/// produce equal breakdowns.
struct AbortBreakdown {
  std::array<uint64_t, kNumAbortCauses> counts{};

  void Record(AbortCause cause) { ++counts[static_cast<size_t>(cause)]; }
  uint64_t Count(AbortCause cause) const { return counts[static_cast<size_t>(cause)]; }
  /// Aborts of transaction attempts (excludes kNone and the kCensored
  /// completion marker).
  uint64_t TotalAborts() const;
  void Accumulate(const AbortBreakdown& other);
  /// "control=3 mc=0 loss=1 desync=0 uplink=0 censored=0"
  std::string ToString() const;

  bool operator==(const AbortBreakdown&) const = default;
};

/// Fixed-capacity single-writer event ring. Overwrites the oldest event
/// when full and counts what it dropped; Snapshot() returns the surviving
/// events oldest-first. One ring is owned (written) by exactly one thread;
/// snapshots are taken only after the run joined its threads.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Record(const TraceEvent& event) {
    buf_[static_cast<size_t>(count_ % buf_.size())] = event;
    ++count_;
  }

  size_t capacity() const { return buf_.size(); }
  uint64_t recorded() const { return count_; }
  uint64_t dropped() const { return count_ > buf_.size() ? count_ - buf_.size() : 0; }

  /// The buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

 private:
  std::vector<TraceEvent> buf_;
  uint64_t count_ = 0;
};

/// A set of named tracks, one ring each. AddTrack is NOT thread-safe: the
/// engines register every track during setup, before worker threads spawn;
/// afterwards each returned ring is written by its one owning thread only.
class Tracer {
 public:
  explicit Tracer(size_t capacity_per_track = 4096);

  /// Registers a track and returns its ring (owned by the tracer, stable
  /// for the tracer's lifetime).
  TraceRing* AddTrack(std::string name);

  size_t num_tracks() const { return rings_.size(); }
  const std::string& track_name(size_t i) const { return names_[i]; }
  const TraceRing& track(size_t i) const { return *rings_[i]; }
  size_t capacity_per_track() const { return capacity_; }

  /// Sum of events dropped across all tracks (ring overflow).
  uint64_t TotalDropped() const;
  uint64_t TotalRecorded() const;

 private:
  size_t capacity_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<std::string> names_;
};

/// Null-safe recording helper for call sites holding an optional ring.
inline void TraceTo(TraceRing* ring, const TraceEvent& event) {
  if (ring != nullptr) ring->Record(event);
}

}  // namespace bcc

#endif  // BCC_OBS_TRACE_H_
