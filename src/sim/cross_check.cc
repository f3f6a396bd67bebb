// The four bit-parity cross-checks (delta, lossless channel, sparse, and
// sequential-vs-concurrent engine), written as scenarios over one harness.

#include <functional>
#include <limits>

#include "common/format.h"
#include "sim/broadcast_sim.h"
#include "sim/concurrent_sim.h"

namespace bcc {
namespace {

/// What every cross-check compares of one run.
struct RunView {
  const char* label;
  const ServerTxnManager& manager;
  const std::vector<std::vector<TxnDecision>>& decisions;
  const AbortBreakdown& abort_causes;
  uint64_t server_commits;
  const DecisionLog& server_log;
};

/// Value-equality of two managers' control matrices across representations:
/// the exact matrices (ServerTxnManager::control()) must agree, and so must
/// the dense matrices when both also maintain one alongside a sparse one.
bool ServerMatricesEqual(const ServerTxnManager& a, const ServerTxnManager& b) {
  if (!(a.control() == b.control())) return false;
  const bool both_dense = a.f_matrix().num_objects() > 0 && b.f_matrix().num_objects() > 0;
  return !both_dense || a.f_matrix() == b.f_matrix();
}

/// Diffs what two runs of one seeded workload must share: every client's
/// decision log, the abort breakdown, the server's commit count, decision
/// log, control matrix, MC vector and committed store.
Status DiffRuns(const RunView& a, const RunView& b) {
  if (a.decisions.size() != b.decisions.size()) {
    return Status::Internal(StrFormat("client counts diverge: %s=%zu %s=%zu", a.label,
                                      a.decisions.size(), b.label, b.decisions.size()));
  }
  for (size_t c = 0; c < a.decisions.size(); ++c) {
    const std::vector<TxnDecision>& x = a.decisions[c];
    const std::vector<TxnDecision>& y = b.decisions[c];
    if (x.size() != y.size()) {
      return Status::Internal(StrFormat("client %zu completed %zu txns %s vs %zu %s", c,
                                        x.size(), a.label, y.size(), b.label));
    }
    for (size_t k = 0; k < x.size(); ++k) {
      if (x[k] == y[k]) continue;
      return Status::Internal(StrFormat(
          "client %zu txn %zu decisions diverge between %s and %s: restarts %u/%u, "
          "censored %d/%d, reads %zu/%zu",
          c, k, a.label, b.label, x[k].restarts, y[k].restarts, x[k].censored ? 1 : 0,
          y[k].censored ? 1 : 0, x[k].reads.size(), y[k].reads.size()));
    }
  }
  if (!(a.abort_causes == b.abort_causes)) {
    return Status::Internal(StrFormat("abort breakdowns diverge: %s=(%s) %s=(%s)", a.label,
                                      a.abort_causes.ToString().c_str(), b.label,
                                      b.abort_causes.ToString().c_str()));
  }
  if (a.server_commits != b.server_commits ||
      a.manager.num_committed() != b.manager.num_committed()) {
    return Status::Internal(StrFormat(
        "server commit counts diverge: %s=%llu/%zu %s=%llu/%zu", a.label,
        static_cast<unsigned long long>(a.server_commits), a.manager.num_committed(), b.label,
        static_cast<unsigned long long>(b.server_commits), b.manager.num_committed()));
  }
  if (a.server_log.ToJson() != b.server_log.ToJson()) {
    return Status::Internal(
        StrFormat("server decision logs diverge between %s and %s", a.label, b.label));
  }
  if (!ServerMatricesEqual(a.manager, b.manager)) {
    return Status::Internal(
        StrFormat("server control matrices diverge between %s and %s", a.label, b.label));
  }
  if (!(a.manager.store().committed() == b.manager.store().committed())) {
    return Status::Internal(
        StrFormat("server stores diverge between %s and %s", a.label, b.label));
  }
  return Status::OK();
}

/// The harness: forces the decision logs on and makes the cycle cutoff the
/// only stop condition (the transaction-count cutoff would stop a run at a
/// timing-dependent point mid-cycle), derives the two runs' configs with
/// `split`, runs A then B, applies the scenario's own checks (`extra`), and
/// diffs the runs (DiffRuns).
template <typename SimA, typename SimB, typename Extra>
Status CrossCheck(const char* name, SimConfig config, const char* label_a, const char* label_b,
                  const std::function<void(SimConfig& a, SimConfig& b)>& split, Extra&& extra) {
  if (config.stop_after_cycles == 0) {
    return Status::InvalidArgument(StrFormat("%s requires stop_after_cycles > 0", name));
  }
  config.record_decisions = true;
  config.num_client_txns = std::numeric_limits<uint32_t>::max();
  SimConfig a_config = config;
  SimConfig b_config = config;
  split(a_config, b_config);

  SimA a(a_config);
  BCC_ASSIGN_OR_RETURN(const auto a_summary, a.Run());
  SimB b(b_config);
  BCC_ASSIGN_OR_RETURN(const auto b_summary, b.Run());
  BCC_RETURN_IF_ERROR(extra(a, a_summary, b, b_summary));
  return DiffRuns(
      RunView{label_a, a.manager(), a.decisions(), a_summary.abort_causes,
              a_summary.server_commits, a.server_decisions()},
      RunView{label_b, b.manager(), b.decisions(), b_summary.abort_causes,
              b_summary.server_commits, b.server_decisions()});
}

/// Field-by-field equality of every non-channel summary field (doubles are
/// compared bit-exactly: identical event sequences must produce identical
/// arithmetic).
Status CompareSummaries(const SimSummary& a, const SimSummary& b, const char* label_a,
                        const char* label_b) {
  const auto check = [&](const char* field, auto x, auto y) -> Status {
    if (x == y) return Status::OK();
    return Status::Internal(StrFormat("summary field %s diverges: %s=%s %s=%s", field, label_a,
                                      StrFormat("%g", static_cast<double>(x)).c_str(), label_b,
                                      StrFormat("%g", static_cast<double>(y)).c_str()));
  };
  BCC_RETURN_IF_ERROR(check("mean_response_time", a.mean_response_time, b.mean_response_time));
  BCC_RETURN_IF_ERROR(
      check("response_ci_half_width", a.response_ci_half_width, b.response_ci_half_width));
  BCC_RETURN_IF_ERROR(check("response_p50", a.response_p50, b.response_p50));
  BCC_RETURN_IF_ERROR(check("response_p95", a.response_p95, b.response_p95));
  BCC_RETURN_IF_ERROR(check("restart_ratio", a.restart_ratio, b.restart_ratio));
  BCC_RETURN_IF_ERROR(check("measured_txns", a.measured_txns, b.measured_txns));
  BCC_RETURN_IF_ERROR(check("total_txns", a.total_txns, b.total_txns));
  BCC_RETURN_IF_ERROR(check("total_restarts", a.total_restarts, b.total_restarts));
  BCC_RETURN_IF_ERROR(check("cycles_elapsed", a.cycles_elapsed, b.cycles_elapsed));
  BCC_RETURN_IF_ERROR(check("server_commits", a.server_commits, b.server_commits));
  BCC_RETURN_IF_ERROR(check("sim_end_time", a.sim_end_time, b.sim_end_time));
  BCC_RETURN_IF_ERROR(check("censored_txns", a.censored_txns, b.censored_txns));
  BCC_RETURN_IF_ERROR(check("delta_cycles", a.delta_cycles, b.delta_cycles));
  BCC_RETURN_IF_ERROR(
      check("delta_refresh_cycles", a.delta_refresh_cycles, b.delta_refresh_cycles));
  BCC_RETURN_IF_ERROR(check("delta_control_bits", a.delta_control_bits, b.delta_control_bits));
  BCC_RETURN_IF_ERROR(check("full_control_bits", a.full_control_bits, b.full_control_bits));
  BCC_RETURN_IF_ERROR(check("delta_stall_waits", a.delta_stall_waits, b.delta_stall_waits));
  return Status::OK();
}

}  // namespace

Status CrossCheckDeltaBroadcast(SimConfig config) {
  return CrossCheck<BroadcastSim, BroadcastSim>(
      "CrossCheckDeltaBroadcast", std::move(config), "full", "delta",
      [](SimConfig& full, SimConfig& delta) {
        full.delta_broadcast = false;
        delta.delta_broadcast = true;
      },
      [](const BroadcastSim&, const SimSummary&, const BroadcastSim& delta_sim,
         const SimSummary& delta_summary) -> Status {
        BCC_RETURN_IF_ERROR(delta_sim.VerifyDeltaTrackers());
        if (delta_summary.delta_control_bits > delta_summary.full_control_bits) {
          return Status::Internal(StrFormat(
              "delta mode shipped more control than the full baseline: %llu > %llu",
              static_cast<unsigned long long>(delta_summary.delta_control_bits),
              static_cast<unsigned long long>(delta_summary.full_control_bits)));
        }
        return Status::OK();
      });
}

Status CrossCheckLossless(SimConfig config) {
  return CrossCheck<BroadcastSim, BroadcastSim>(
      "CrossCheckLossless", std::move(config), "direct", "channel",
      [](SimConfig& direct, SimConfig& channel) {
        for (SimConfig* c : {&direct, &channel}) {
          c->channel_loss_rate = 0;
          c->channel_corrupt_rate = 0;
          c->channel_truncate_rate = 0;
          c->channel_burst = false;
        }
        direct.channel_broadcast = false;
        channel.channel_broadcast = true;
      },
      [](const BroadcastSim&, const SimSummary& direct, const BroadcastSim&,
         const SimSummary& channel) -> Status {
        // A rate-0 channel must deliver every frame undamaged and reproduce
        // the direct path's summary bit-exactly.
        const ChannelStats& ch = channel.channel;
        if (ch.frames_sent == 0) return Status::Internal("channel run transmitted no frames");
        if (ch.frames_dropped != 0 || ch.frames_rejected != 0 ||
            ch.frames_delivered != ch.frames_sent || ch.control_losses != 0 ||
            ch.data_losses != 0 || ch.stalls != 0) {
          return Status::Internal("rate-0 channel run reported losses or stalls");
        }
        return CompareSummaries(direct, channel, "direct", "channel");
      });
}

Status CrossCheckSparseMode(SimConfig config) {
  if (config.sparse_compaction_period > 0) {
    // Compaction aliases stale entries upward; the server's dependency fold
    // (dep(i) = max_k C(i, k)) then mixes aliased and in-window values, so
    // decisions are conservative-safe but not bit-identical to dense. Audit
    // compacted runs with VerifyOracle instead.
    return Status::InvalidArgument(
        "CrossCheckSparseMode requires sparse_compaction_period == 0 (compaction is "
        "conservative, not decision-identical)");
  }
  return CrossCheck<BroadcastSim, BroadcastSim>(
      "CrossCheckSparseMode", std::move(config), "dense", "sparse",
      [](SimConfig& dense, SimConfig& sparse) {
        dense.matrix_mode = MatrixMode::kDense;
        sparse.matrix_mode = MatrixMode::kSparse;
      },
      [](const BroadcastSim&, const SimSummary& dense, const BroadcastSim& sparse_sim,
         const SimSummary& sparse) -> Status {
        // Only the matrix_* accounting fields (absent from CompareSummaries)
        // may differ between representations.
        BCC_RETURN_IF_ERROR(CompareSummaries(dense, sparse, "dense", "sparse"));
        if (sparse_sim.config().delta_broadcast) {
          BCC_RETURN_IF_ERROR(sparse_sim.VerifyDeltaTrackers());
        }
        return Status::OK();
      });
}

Status CrossCheckEngines(SimConfig config) {
  return CrossCheck<BroadcastSim, ConcurrentSim>(
      "CrossCheckEngines", std::move(config), "sequential", "concurrent",
      [](SimConfig&, SimConfig&) {},
      [](const BroadcastSim&, const SimSummary&, const ConcurrentSim&,
         const ConcurrentSummary&) { return Status::OK(); });
}

}  // namespace bcc
