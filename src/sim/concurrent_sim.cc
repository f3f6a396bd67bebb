#include "sim/concurrent_sim.h"

#include <atomic>
#include <barrier>
#include <cassert>
#include <thread>

#include "client/session.h"
#include "common/format.h"
#include "sim/broadcast_sim.h"  // kClientTxnIdBase

namespace bcc {

namespace {

// The DES fires events in (time, insertion-order) order, which matters in
// exactly one place: an event landing on a cycle boundary k*L fires before
// the boundary's cycle-flip iff it was inserted before the flip was — and
// the flip at k*L is inserted at (k-1)*L, by the previous flip's handler.
// An event is inserted the moment its parent event fires, so the rule is
// recursive in the parent's own boundary side. Replaying it per event keeps
// every thread's private timeline bit-identical to the DES without a queue.
bool FiresBeforeFlip(SimTime at, SimTime parent_time, bool parent_pre_flip, SimTime cycle_bits) {
  if (at == 0 || at % cycle_bits != 0) return false;  // not on a boundary
  const SimTime flip_inserted = at - cycle_bits;
  return parent_time < flip_inserted ||
         (parent_time == flip_inserted && parent_pre_flip);
}

// The broadcast cycle an event belongs to: events on a boundary fire in the
// old cycle when they beat the flip, in the new cycle otherwise.
Cycle PhaseOf(SimTime at, bool pre_flip, SimTime cycle_bits) {
  return pre_flip ? at / cycle_bits : at / cycle_bits + 1;
}

}  // namespace

/// One client thread's private event timeline over its session. Everything
/// here is owned by one client thread for the duration of the run; the only
/// cross-thread traffic is the published snapshot (read) and the completion
/// counter (fetch_add).
struct ConcurrentSim::ClientTimeline {
  enum class Kind {
    kSubmit,
    kBeginRead,
    kRead,
    kUplink,       ///< update txn: ship reads+writes to the validator desk
    kUplinkDone,   ///< accepted; the client learns one uplink delay later
    kUplinkAbort,  ///< rejected; the abort fires one uplink delay later
  };
  struct Event {
    Kind kind;
    SimTime time;
    bool pre_flip;  // fires before the cycle flip at `time` (boundaries only)
  };

  ClientTimeline(const SimConfig& config, Rng rng) : session(config, rng), txn(session.NewTxn()) {}

  ClientSession session;
  ReadTxn txn;
  Event ev{Kind::kSubmit, 0, false};
  /// Rejection cause captured at the validator desk, consumed by the
  /// kUplinkAbort event one uplink delay later.
  AbortInfo uplink_reject;
};

ConcurrentSim::ConcurrentSim(SimConfig config)
    : config_(std::move(config)), geometry_(config_.Geometry()) {}

ConcurrentSim::~ConcurrentSim() = default;

void ConcurrentSim::ProcessClientPhase(ClientTimeline& cl, Cycle phase, const CycleSnapshot& snap) {
  assert(snap.cycle == phase);
  using Kind = ClientTimeline::Kind;
  const SimTime cycle_start = (phase - 1) * cycle_bits_;
  const BroadcastSchedule& schedule = server_->schedule();
  ClientSession& session = cl.session;
  ReadTxn& txn = cl.txn;

  while (PhaseOf(cl.ev.time, cl.ev.pre_flip, cycle_bits_) == phase) {
    const SimTime t = cl.ev.time;
    const bool pre = cl.ev.pre_flip;
    const auto schedule_next = [&](Kind kind, SimTime at) {
      cl.ev = ClientTimeline::Event{kind, at, FiresBeforeFlip(at, t, pre, cycle_bits_)};
    };
    const auto complete_txn = [&](bool censored) {
      session.Complete(txn, censored, t, phase);
      completions_.fetch_add(1, std::memory_order_relaxed);
      schedule_next(Kind::kSubmit, t + session.workload().NextInterTxnDelay());
    };
    // Mirrors BroadcastSim::OnStep.
    const auto on_step = [&](TxnStep step) {
      if (step == TxnStep::kNextRead || step == TxnStep::kRestart) {
        schedule_next(Kind::kBeginRead, t + session.ThinkTime(step));
      } else if (step == TxnStep::kCensor || !txn.is_update) {
        complete_txn(step == TxnStep::kCensor);
      } else {
        schedule_next(Kind::kUplink, t + config_.uplink_delay);
      }
    };

    switch (cl.ev.kind) {
      case Kind::kSubmit:
        session.Begin(txn, t);
        schedule_next(Kind::kBeginRead, t + session.workload().NextInterOpDelay());
        break;
      case Kind::kBeginRead:
        schedule_next(Kind::kRead,
                      NextReadSlotEnd(schedule, geometry_, txn.next_object(), t, cycle_start));
        break;
      case Kind::kRead: {
        const ReadGate gate = session.Gate(txn.next_object(), phase);
        if (gate == ReadGate::kReady) {
          on_step(session.Read(txn, snap, t));
          break;
        }
        // Missed cycle: retry at the object's first slot of the next cycle;
        // never validate against a stale snapshot.
        session.Stall(txn, gate, t, phase);
        const SimTime next_start = cycle_start + cycle_bits_;
        schedule_next(Kind::kRead, NextReadSlotEnd(schedule, geometry_, txn.next_object(),
                                                   next_start, next_start));
        break;
      }
      case Kind::kUplink: {
        // The validator desk: one client at a time validates against the
        // merged (manager MC, overlay) view and — on acceptance — stages its
        // writes and queues for the fold's serial prefix. The manager is
        // never mutated mid-phase, so the MC read under the desk lock is
        // race-free against the server thread.
        bool accepted;
        {
          std::lock_guard<std::mutex> lock(uplink_mu_);
          ClientUpdateRequest request;
          request.id = next_client_update_id_++;
          request.reads = txn.protocol.reads();
          request.writes = txn.write_set;
          accepted = validator_->ValidateAndCommit(request, phase).ok();
          if (!accepted) cl.uplink_reject = validator_->last_reject();
        }
        session.UplinkVerdict(accepted, t, phase);
        // The client learns the outcome one uplink delay later.
        schedule_next(accepted ? Kind::kUplinkDone : Kind::kUplinkAbort, t + config_.uplink_delay);
        break;
      }
      case Kind::kUplinkDone:
        complete_txn(/*censored=*/false);
        break;
      case Kind::kUplinkAbort:
        on_step(session.Abort(txn, cl.uplink_reject, t, phase));
        break;
    }
  }
}

void ConcurrentSim::ProcessServerPhase(Cycle phase) {
  while (PhaseOf(next_commit_time_, next_commit_pre_flip_, cycle_bits_) == phase) {
    const ServerTxn txn = server_workload_->NextTxn();
    if (mc_overlay_ != nullptr) mc_overlay_->Stage(txn.write_set, phase);
    if (txn_processor_ != nullptr) {
      pending_server_txns_.push_back(txn);
    } else {
      manager_->ExecuteAndCommit(txn, phase);
    }
    ++server_commits_;
    TraceServerCommit(server_trace_, next_commit_time_, phase, txn.id);
    const SimTime prev = next_commit_time_;
    const bool prev_pre = next_commit_pre_flip_;
    next_commit_time_ = prev + server_workload_->NextInterval();
    next_commit_pre_flip_ = FiresBeforeFlip(next_commit_time_, prev, prev_pre, cycle_bits_);
  }
  // Pooled mode without uplinks: execute the phase's staged transactions
  // concurrently and fold the serialization order now — still before the
  // work barrier, so the snapshot published in the exclusive section
  // reflects every commit of this phase (the same cycle-granular visibility
  // as the serial path). Uplink mode folds in the exclusive section.
  if (mc_overlay_ == nullptr) {
    FoldPooledCycle(txn_processor_.get(), *manager_, phase, pending_uplink_txns_,
                    pending_server_txns_, nullptr);
  }
}

StatusOr<ConcurrentSummary> ConcurrentSim::Run() {
  if (ran_) return Status::FailedPrecondition("ConcurrentSim::Run may only be called once");
  ran_ = true;
  BCC_RETURN_IF_ERROR(config_.Validate());
  if (config_.enable_cache) {
    return Status::InvalidArgument("ConcurrentSim does not support the client cache yet");
  }
  if (config_.client_update_fraction > 0.0 &&
      config_.update_scheme == UpdateScheme::kSequential) {
    return Status::InvalidArgument(
        "ConcurrentSim supports client update transactions only with a pooled update "
        "scheme (sequential uplink commits would mutate the manager mid-phase)");
  }
  if (config_.delta_broadcast) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support the snapshot+delta control broadcast yet");
  }
  if (config_.matrix_mode == MatrixMode::kHier) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support matrix_mode=hier (the refinement policy is driven "
        "by the sequential DES)");
  }
  if (config_.sparse_compaction_period > 0) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support sparse_compaction_period (compaction rewrites "
        "matrix values, which would break the cross-engine matrix comparison)");
  }

  // Setup mirrors BroadcastSim::Run — the root RNG split order is part of
  // the cross-engine contract.
  manager_ = std::make_unique<ServerTxnManager>(config_.num_objects, ManagerOptionsFor(config_));
  server_ = std::make_unique<BroadcastServer>(config_.num_objects, geometry_);
  BCC_RETURN_IF_ERROR(ConfigureBroadcastServer(config_, *server_));

  Rng root(config_.seed);
  server_workload_ = std::make_unique<ServerWorkload>(config_, root.Split());
  // The fold only ever runs in the exclusive section, when the pool is
  // otherwise idle.
  txn_processor_ = MakePooledProcessor(config_, *manager_);

  if (config_.client_update_fraction > 0.0) {
    validator_ = std::make_unique<UpdateValidator>(manager_.get());
    mc_overlay_ = std::make_unique<McOverlay>(config_.num_objects);
    next_client_update_id_ = 2 * kClientTxnIdBase;  // disjoint id range
    validator_->AttachStagedMode(mc_overlay_.get(), [this](ServerTxn&& txn) {
      pending_uplink_txns_.push_back(std::move(txn));
    });
  }

  clients_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientTimeline>(config_, root.Split()));
  }
  if (tracer_ != nullptr) {
    // Track registration happens strictly before any thread spawns; after
    // this point each ring has exactly one writer for the whole run.
    server_trace_ = tracer_->AddTrack("server");
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->session.set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
    }
  }
  if (config_.channel_broadcast) {
    // Channel fault streams are seeded independently of the root RNG (see
    // LossyChannel), so client c's fault sequence here is bit-identical to
    // its sequence in the DES — the lossy cross-engine check depends on it.
    frame_codec_.emplace(CycleStampCodec(config_.timestamp_bits), config_.channel_frame_bits);
    channel_ = std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                              config_.num_clients);
  }

  cycle_bits_ = server_->CycleLengthBits();
  server_->BeginCycle(1, 0, *manager_);
  TraceCycleStart(server_trace_, *server_);
  published_ = std::make_shared<const CycleSnapshot>(server_->snapshot());
  if (channel_ != nullptr) {
    published_frames_ = std::make_shared<const std::vector<Frame>>(
        EncodeCycleFrames(*published_, *frame_codec_, config_.object_size_bits));
  }

  next_commit_time_ = server_workload_->NextInterval();
  next_commit_pre_flip_ = FiresBeforeFlip(next_commit_time_, 0, false, cycle_bits_);
  for (auto& cl : clients_) {
    const SimTime at = cl->session.workload().NextInterTxnDelay();
    cl->ev = ClientTimeline::Event{ClientTimeline::Kind::kSubmit, at,
                                   FiresBeforeFlip(at, 0, false, cycle_bits_)};
  }

  // Epoch loop. Per broadcast cycle k: client threads drain their cycle-k
  // events against the immutable published snapshot while the server thread
  // stages cycle-k commits; at the work barrier everyone is quiescent, the
  // server publishes the cycle-(k+1) snapshot and the stop verdict, and the
  // publish barrier releases the next epoch.
  completions_.store(0, std::memory_order_relaxed);
  std::barrier work_done(static_cast<std::ptrdiff_t>(config_.num_clients) + 1);
  std::barrier publish_done(static_cast<std::ptrdiff_t>(config_.num_clients) + 1);
  bool stop = false;

  // Uplink mode: cycle 1's server transactions are staged before any client
  // thread exists, so the overlay is complete and immutable for the whole
  // first phase (later phases stage in the preceding exclusive section).
  if (validator_ != nullptr) ProcessServerPhase(1);

  std::vector<std::jthread> threads;
  threads.reserve(config_.num_clients);
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    threads.emplace_back([this, c, &work_done, &publish_done, &stop] {
      ClientTimeline& cl = *clients_[c];
      for (Cycle phase = 1;; ++phase) {
        const std::shared_ptr<const CycleSnapshot> snap = published_;
        if (ChannelReceiver* receiver = cl.session.receiver()) {
          // Per-client fault link and receiver are thread-local; Transmit
          // only touches this client's RNG/burst state inside channel_.
          const std::shared_ptr<const std::vector<Frame>> frames = published_frames_;
          receiver->IngestCycle(phase, channel_->Transmit(c, *frames), (phase - 1) * cycle_bits_);
        }
        ProcessClientPhase(cl, phase, *snap);
        work_done.arrive_and_wait();
        publish_done.arrive_and_wait();
        if (stop) break;
      }
    });
  }

  uint64_t cycles = 0;
  for (Cycle phase = 1;; ++phase) {
    // Uplink mode keeps the manager untouched during the work phase (desk
    // validations read its MC vector concurrently): this phase's server
    // transactions were already staged in the previous exclusive section,
    // and the fold below applies them after the work barrier.
    if (validator_ == nullptr) ProcessServerPhase(phase);
    work_done.arrive_and_wait();
    // Exclusive section: every client thread is parked between the two
    // barriers, so the snapshot swap and stop verdict are race-free.
    if (validator_ != nullptr) {
      FoldPooledCycle(txn_processor_.get(), *manager_, phase, pending_uplink_txns_,
                      pending_server_txns_, mc_overlay_.get());
    }
    cycles = phase;
    stop = config_.stop_after_cycles > 0
               ? phase >= config_.stop_after_cycles
               : completions_.load(std::memory_order_relaxed) >= config_.num_client_txns;
    if (!stop) {
      server_->BeginCycle(phase + 1, phase * cycle_bits_, *manager_);
      TraceCycleStart(server_trace_, *server_);
      published_ = std::make_shared<const CycleSnapshot>(server_->snapshot());
      if (channel_ != nullptr) {
        published_frames_ = std::make_shared<const std::vector<Frame>>(
            EncodeCycleFrames(*published_, *frame_codec_, config_.object_size_bits));
      }
      if (validator_ != nullptr) ProcessServerPhase(phase + 1);
    }
    publish_done.arrive_and_wait();
    if (stop) break;
  }
  threads.clear();  // join

  ConcurrentSummary summary;
  summary.cycles = cycles;
  summary.server_commits = server_commits_;
  decisions_.clear();
  for (auto& cl : clients_) {
    ClientSession& session = cl->session;
    summary.completed_txns += session.completed();
    summary.censored_txns += session.censored();
    summary.total_restarts += session.restarts();
    summary.client_update_commits += session.update_commits();
    summary.client_update_rejects += session.update_rejects();
    summary.abort_causes.Accumulate(session.abort_causes());
    if (session.receiver() != nullptr) summary.channel.Accumulate(session.receiver()->stats());
    if (config_.record_decisions) decisions_.push_back(std::move(session.decisions()));
  }
  // Mirror the DES accounting: accepted uplink transactions are server
  // commits (they enter the manager's committed stream).
  summary.server_commits += summary.client_update_commits;
  return summary;
}

}  // namespace bcc
