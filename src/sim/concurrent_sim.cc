#include "sim/concurrent_sim.h"

#include <atomic>
#include <cassert>
#include <thread>

#include "client/session.h"
#include "common/format.h"
#include "sim/cycle_gate.h"

namespace bcc {

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

  ClientTimeline(uint32_t index, const SimConfig& config, Rng rng)
      : index(index), session(config, rng), txn(session.NewTxn()) {}

  uint32_t index;
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
  const BroadcastSchedule& schedule = server_->broadcast().schedule();
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
        UplinkOutcome outcome;
        {
          std::lock_guard<std::mutex> lock(uplink_mu_);
          outcome = server_->SubmitUplink(cl.index, txn.protocol.reads(), txn.write_set, phase);
        }
        cl.uplink_reject = outcome.cause;
        session.UplinkVerdict(outcome.accepted, t, phase);
        // The client learns the outcome one uplink delay later.
        schedule_next(outcome.accepted ? Kind::kUplinkDone : Kind::kUplinkAbort,
                      t + config_.uplink_delay);
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

StatusOr<ConcurrentSummary> ConcurrentSim::Run() {
  if (ran_) return Status::FailedPrecondition("ConcurrentSim::Run may only be called once");
  ran_ = true;
  BCC_RETURN_IF_ERROR(config_.Validate());
  if (config_.enable_cache) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support the client cache (its timelines have no cache-hit "
        "path)");
  }
  if (config_.client_update_fraction > 0.0 &&
      config_.update_scheme == UpdateScheme::kSequential) {
    return Status::InvalidArgument(
        "ConcurrentSim supports client update transactions only with a pooled update "
        "scheme (sequential uplink commits would mutate the manager mid-phase)");
  }
  if (config_.matrix_mode == MatrixMode::kHier) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support matrix_mode=hier (client reads would scan the live "
        "hierarchical matrix the server thread mutates during the phase)");
  }

  // The root RNG split order (server workload first, then one split per
  // client) is part of the cross-engine contract.
  Rng root(config_.seed);
  BCC_ASSIGN_OR_RETURN(server_, CycleServer::Create(config_, root.Split()));
  const bool uplinks = config_.client_update_fraction > 0.0;

  clients_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientTimeline>(c, config_, root.Split()));
  }
  if (tracer_ != nullptr) {
    // Track registration happens strictly before any thread spawns; after
    // this point each ring has exactly one writer for the whole run.
    server_->set_trace_ring(tracer_->AddTrack("server"));
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->session.set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
    }
  }
  if (config_.channel_broadcast) {
    // Channel fault streams are seeded independently of the root RNG (see
    // LossyChannel), so client c's fault sequence here is bit-identical to
    // its sequence in the DES — the lossy cross-engine check depends on it.
    channel_ = std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                              config_.num_clients);
  }

  cycle_bits_ = server_->cycle_bits();
  server_->BeginCycle(1);
  for (auto& cl : clients_) {
    const SimTime at = cl->session.workload().NextInterTxnDelay();
    cl->ev = ClientTimeline::Event{ClientTimeline::Kind::kSubmit, at,
                                   FiresBeforeFlip(at, 0, false, cycle_bits_)};
  }

  // Epoch loop. Per broadcast cycle k: client threads drain their cycle-k
  // events against the immutable published snapshot, arrive at the gate
  // without waiting and sleep until cycle k+1 is published, while the server
  // thread stages and folds cycle k. Once every client has arrived the
  // server holds the exclusive section: it publishes the cycle-(k+1)
  // snapshot and the stop verdict, then opens the gate. With uplinks the
  // server stages and folds in the exclusive section instead (cycle 1 is
  // staged before any client thread exists), so mid-phase desk validations
  // see a fixed manager and overlay; during the phase it draws cycle k+1's
  // transactions, which no client reads.
  completions_.store(0, std::memory_order_relaxed);
  CycleGate gate(config_.num_clients);
  bool stop = false;
  if (uplinks) server_->StageCycle(1);

  std::vector<std::jthread> threads;
  threads.reserve(config_.num_clients);
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    threads.emplace_back([this, c, &gate, &stop] {
      ClientTimeline& cl = *clients_[c];
      for (Cycle phase = 1;; ++phase) {
        // Held until the next cycle is published, so the last client to let
        // go of cycle k's state frees it, outside the server's exclusive
        // section.
        const std::shared_ptr<const CycleSnapshot> snap = server_->broadcast().shared_snapshot();
        // The fault link and receiver are per client: Transmit only touches
        // this client's RNG and burst state inside channel_.
        cl.session.ReceiveCycle(*snap, server_->frames(), channel_.get(), c,
                                (phase - 1) * cycle_bits_);
        ProcessClientPhase(cl, phase, *snap);
        gate.Arrive();
        gate.AwaitPublish(phase);
        if (stop) break;
      }
    });
  }

  uint64_t cycles = 0;
  for (Cycle phase = 1;; ++phase) {
    if (!uplinks) {
      server_->StageCycle(phase);
      server_->EndCycle(phase, /*control_conflicts=*/0);
    } else if (phase != config_.stop_after_cycles) {
      server_->DrawCycle(phase + 1);
    }
    gate.AwaitArrivals();
    // Exclusive section: every client thread has arrived and sleeps until
    // Publish, so the snapshot swap and stop verdict are race-free.
    if (uplinks) server_->EndCycle(phase, /*control_conflicts=*/0);
    cycles = phase;
    stop = config_.stop_after_cycles > 0
               ? phase >= config_.stop_after_cycles
               : completions_.load(std::memory_order_relaxed) >= config_.num_client_txns;
    if (!stop) {
      server_->BeginCycle(phase + 1);
      if (uplinks) server_->StageCycle(phase + 1);
    }
    gate.Publish();
    if (stop) break;
  }
  threads.clear();  // join

  ConcurrentSummary summary;
  summary.cycles = cycles;
  summary.server_commits = server_->server_commits();
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
