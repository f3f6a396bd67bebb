// Simulation configuration (Table 1 of the paper).

#ifndef BCC_SIM_CONFIG_H_
#define BCC_SIM_CONFIG_H_

#include <string>
#include <string_view>

#include "channel/lossy_channel.h"
#include "common/status.h"
#include "des/event_queue.h"
#include "matrix/hier_matrix.h"
#include "matrix/wire.h"
#include "server/exec/scheme.h"

namespace bcc {

/// Server-side control-matrix representation (ROADMAP item 4, DESIGN.md §4l).
enum class MatrixMode {
  kDense,   ///< the paper's n x n FMatrix — the bit-exactness oracle
  kSparse,  ///< compressed-sparse-column SparseFMatrix, value-identical to
            ///< dense; O(nnz) maintenance/diffing, sparse control accounting
  kHier,    ///< hierarchical: coarse group columns, on-demand exact
            ///< refinement, adaptive g (conservative, NOT bit-identical)
};

std::string_view MatrixModeName(MatrixMode mode);

/// All knobs of the Section 4 simulation. Defaults are Table 1; time values
/// are bit-units (time to broadcast one bit). At 64 Kbit/s the default
/// inter-operation delay (65536) is 1 s and the inter-transaction delay
/// (131072) is 2 s.
struct SimConfig {
  Algorithm algorithm = Algorithm::kFMatrix;

  // ---- Table 1 parameters ----
  uint32_t client_txn_length = 4;      ///< reads per client transaction
  uint32_t server_txn_length = 8;      ///< read/write ops per server txn
  uint64_t server_txn_interval = 250000;  ///< bit-units between commits
  uint32_t num_objects = 300;
  uint64_t object_size_bits = 8 * 1024;   ///< 1 KB objects
  double server_read_probability = 0.5;
  uint64_t mean_inter_op_delay = 65536;    ///< exponential
  uint64_t mean_inter_txn_delay = 131072;  ///< exponential
  uint64_t restart_delay = 0;              ///< after an abort
  unsigned timestamp_bits = 8;

  // ---- run control ----
  uint32_t num_client_txns = 1000;  ///< total, all clients; paper: 1000
  uint32_t warmup_txns = 500;       ///< excluded from steady-state stats
  /// Concurrent clients. The paper uses one (read-only clients never
  /// interact); more are meaningful with client_update_fraction > 0.
  uint32_t num_clients = 1;
  uint64_t seed = 42;
  /// Exponential server inter-commit times (a Poisson completion process);
  /// false = deterministic spacing.
  bool server_interval_exponential = true;
  /// Round-trip every consulted control stamp through the TS-bit modulo
  /// wire codec, as the real protocol would.
  bool use_wire_codec = true;
  /// Censoring guard for pathological configurations (e.g. Datacycle with
  /// very long client transactions): a transaction is force-completed after
  /// this many aborts and flagged in the metrics.
  uint32_t max_restarts_per_txn = 200000;

  // ---- extensions ----
  /// Group-matrix spectrum (Section 3.2.2): 0 = the algorithm's natural
  /// granularity (n for F-Matrix, 1 for R-Matrix/Datacycle); otherwise the
  /// number of groups g for an F-Matrix-style grouped protocol.
  uint32_t num_groups = 0;
  /// Client update transactions (Section 3.2.1 client functionality /
  /// Section 5 future work): fraction of client transactions that buffer
  /// writes locally and commit through the server's optimistic validator
  /// over the uplink. 0 = the paper's evaluation setting (read-only only).
  double client_update_fraction = 0.0;
  /// Objects written by a client update transaction (chosen uniformly).
  uint32_t client_update_writes = 2;
  /// One-way uplink latency in bit-units for the commit request/response.
  uint64_t uplink_delay = 4096;
  /// Multi-speed broadcast disk (Section 2.1 scoping lifted): objects
  /// [0, hot_set_size) appear hot_broadcast_frequency times per major
  /// cycle. hot_set_size = 0 keeps the paper's single-speed disk.
  uint32_t hot_set_size = 0;
  uint32_t hot_broadcast_frequency = 1;
  /// Access skew: probability that a client read (resp. server operation)
  /// targets the hot set. Negative = uniform over the whole database.
  double client_hot_access_fraction = -1.0;
  double server_hot_access_fraction = -1.0;
  /// Client quasi-cache (Section 3.3).
  bool enable_cache = false;
  size_t cache_capacity = 0;          ///< 0 = unbounded
  SimTime cache_currency_bound = 0;   ///< T in bit-units
  /// Snapshot+delta control broadcast (Section 3.2.1 delta transmission):
  /// the server ships per-cycle sparse deltas of the F-Matrix plus a full
  /// refresh every delta_refresh_period cycles; clients validate against a
  /// locally reconstructed matrix. Requires kFMatrix, ungrouped, the wire
  /// codec, and no cache. Slot geometry (and hence all timing) is unchanged;
  /// the control-bit savings are reported in the metrics.
  bool delta_broadcast = false;
  uint64_t delta_refresh_period = 8;   ///< in [1, 2^ts - 1]
  /// Test knob: at the start of this cycle every client's tracker is forced
  /// to desync, exercising the stall-until-refresh fallback (0 = never).
  uint64_t delta_desync_at_cycle = 0;
  /// Lossy broadcast channel (src/channel/): packetize every cycle's
  /// broadcast into CRC-framed fixed-size frames and deliver them to each
  /// client through a per-client fault-injecting channel; clients read data
  /// pages and control info from their receiver's reassembly instead of the
  /// in-process snapshot. Requires kFMatrix, ungrouped, the wire codec, no
  /// cache, and read-only clients. With all fault rates 0 the decision logs
  /// are bit-exact with the direct path (CrossCheckLossless).
  bool channel_broadcast = false;
  uint64_t channel_frame_bits = 512;  ///< frame size incl. header + CRC
  double channel_loss_rate = 0.0;
  double channel_corrupt_rate = 0.0;
  double channel_truncate_rate = 0.0;
  /// Gilbert–Elliott burst loss: while in the Bad state frames drop at
  /// channel_burst_loss_rate instead of channel_loss_rate.
  bool channel_burst = false;
  double channel_burst_loss_rate = 0.9;
  double channel_burst_enter_rate = 0.02;
  double channel_burst_exit_rate = 0.25;

  /// Control-matrix representation. kSparse requires an F-family algorithm,
  /// ungrouped control, and no client cache; every decision stays
  /// bit-identical to kDense (CrossCheckSparseMode). kHier additionally
  /// requires kFMatrix, the sequential update scheme, read-only clients, and
  /// no delta/channel broadcast; it is conservative rather than
  /// bit-identical (spurious aborts only). The sim_cli spelling is
  /// --matrix=dense|sparse|group:g|hier, where group:g is sugar for kDense
  /// with num_groups = g (the fixed-g paper path; see ParseMatrixOption).
  MatrixMode matrix_mode = MatrixMode::kDense;
  /// Sparse wraparound compaction: every this many cycles, rewrite entries to
  /// their windowed decode and drop the ones matching the column floor
  /// (SparseFMatrix::CompactModulo). 0 = off. Compacted values stay congruent
  /// mod 2^ts and >= the exact values, but the server's dependency fold can
  /// mix aliased and in-window values, so compacted runs are conservative
  /// (spurious aborts only; audited by VerifyOracle) rather than
  /// bit-identical to dense. Requires use_wire_codec, matrix_mode == kSparse,
  /// and no delta broadcast (the delta base diffs by value).
  uint64_t sparse_compaction_period = 0;
  /// Hierarchical-matrix policy knobs (HierMatrixOptions mirror).
  uint32_t hier_initial_groups = 64;
  uint32_t hier_min_groups = 1;
  uint32_t hier_max_groups = 1u << 16;
  uint32_t hier_refine_limit = 1024;
  uint32_t hier_coarsen_idle_cycles = 64;
  uint32_t hier_regroup_period = 32;
  uint64_t hier_split_threshold = 4;

  /// The hier knobs above as HierMatrixOptions.
  HierMatrixOptions HierOptions() const;

  /// The channel knobs above as a ChannelFaultConfig.
  ChannelFaultConfig ChannelFaults() const;

  /// Parallel update engine (src/server/exec/, DESIGN.md §4h): how the
  /// server executes its update transactions. kSequential is the paper's
  /// serial path (commits applied at their generated event times). kOcc
  /// defers each broadcast cycle's server transactions to a thread-pooled
  /// TxnProcessor and folds its serialization order into the manager at the
  /// cycle boundary — before the next cycle's snapshot, so clients observe
  /// exactly the same cycle-granular state visibility as the serial path.
  /// Client uplinks run under either scheme; under kOcc they validate
  /// mid-cycle against the staged MC overlay and fold as a serial prefix of
  /// the cycle's batch. ConcurrentSim accepts uplinks under kOcc only.
  UpdateScheme update_scheme = UpdateScheme::kSequential;
  /// Executors for the pooled engine (update_scheme == kOcc), the
  /// calling thread included: the pool spawns update_workers − 1 threads,
  /// and at 1 each batch runs inline on the server thread.
  uint32_t update_workers = 4;

  // ---- test instrumentation ----
  /// Record the full update history plus client reads so the run can be
  /// replayed through the APPROX/legality oracles. Use small configs only.
  bool record_history = false;
  /// Stop the run at the end of broadcast cycle `stop_after_cycles` instead
  /// of after num_client_txns completions (0 = disabled). A cycle boundary
  /// is a timing-independent cutoff, so two engines given the same seed
  /// observe exactly the same prefix of every client's transaction stream —
  /// the contract the sequential/concurrent cross-check relies on.
  uint64_t stop_after_cycles = 0;
  /// Keep a per-client log of TxnDecision records (sim/metrics.h) for
  /// engine cross-checks. Use small configs only.
  bool record_decisions = false;
  /// Per-track ring capacity used when a Tracer is attached to an engine
  /// (sim_cli --trace-capacity). Purely observational — changing it never
  /// changes decisions; when no tracer is attached it is unused.
  size_t trace_capacity = 4096;

  /// Parameter sanity checks.
  Status Validate() const;

  /// Broadcast-cycle geometry induced by the algorithm and sizes.
  BroadcastGeometry Geometry() const;

  /// One-line description for bench output headers.
  std::string ToString() const;
};

/// Parses the --matrix=dense|sparse|group:<g>|hier spelling into
/// config->matrix_mode (and num_groups for group:<g>).
Status ParseMatrixOption(std::string_view value, SimConfig* config);

}  // namespace bcc

#endif  // BCC_SIM_CONFIG_H_
