#include "sim/config.h"

#include <algorithm>

#include "channel/frame.h"
#include "common/format.h"

namespace bcc {

Status SimConfig::Validate() const {
  if (num_objects == 0) return Status::InvalidArgument("num_objects must be > 0");
  if (client_txn_length == 0) {
    return Status::InvalidArgument("client_txn_length must be > 0");
  }
  if (client_txn_length > num_objects) {
    return Status::InvalidArgument("client_txn_length exceeds num_objects");
  }
  if (server_txn_length == 0) {
    return Status::InvalidArgument("server_txn_length must be > 0");
  }
  if (object_size_bits == 0) return Status::InvalidArgument("object_size_bits must be > 0");
  if (server_txn_interval == 0) {
    return Status::InvalidArgument("server_txn_interval must be > 0");
  }
  if (timestamp_bits < 1 || timestamp_bits > 32) {
    return Status::InvalidArgument("timestamp_bits must be in [1, 32]");
  }
  if (server_read_probability < 0.0 || server_read_probability > 1.0) {
    return Status::InvalidArgument("server_read_probability must be in [0, 1]");
  }
  if (num_groups > num_objects) {
    return Status::InvalidArgument("num_groups exceeds num_objects");
  }
  if (warmup_txns >= num_client_txns) {
    return Status::InvalidArgument("warmup_txns must be < num_client_txns");
  }
  if (client_update_fraction < 0.0 || client_update_fraction > 1.0) {
    return Status::InvalidArgument("client_update_fraction must be in [0, 1]");
  }
  if (client_update_fraction > 0.0 &&
      (client_update_writes == 0 || client_update_writes > num_objects)) {
    return Status::InvalidArgument("client_update_writes must be in [1, num_objects]");
  }
  if (num_clients == 0) {
    return Status::InvalidArgument("num_clients must be >= 1");
  }
  if (trace_capacity == 0) {
    return Status::InvalidArgument("trace_capacity must be > 0");
  }
  if (hot_set_size > num_objects) {
    return Status::InvalidArgument("hot_set_size exceeds num_objects");
  }
  if (hot_set_size > 0 && hot_broadcast_frequency == 0) {
    return Status::InvalidArgument("hot_broadcast_frequency must be >= 1");
  }
  if (client_hot_access_fraction > 1.0 || server_hot_access_fraction > 1.0) {
    return Status::InvalidArgument("hot access fractions must be <= 1");
  }
  if ((client_hot_access_fraction >= 0.0 || server_hot_access_fraction >= 0.0) &&
      (hot_set_size == 0 || hot_set_size == num_objects)) {
    return Status::InvalidArgument("hot access skew requires 0 < hot_set_size < num_objects");
  }
  if (delta_broadcast) {
    if (algorithm != Algorithm::kFMatrix) {
      return Status::InvalidArgument("delta_broadcast requires the F-Matrix algorithm");
    }
    if (num_groups != 0) {
      return Status::InvalidArgument("delta_broadcast does not support grouped control");
    }
    if (!use_wire_codec) {
      return Status::InvalidArgument("delta_broadcast requires use_wire_codec");
    }
    if (enable_cache) {
      return Status::InvalidArgument("delta_broadcast does not support the client cache");
    }
    const uint64_t max_cycles = (uint64_t{1} << timestamp_bits) - 1;
    if (delta_refresh_period < 1 || delta_refresh_period > max_cycles) {
      return Status::InvalidArgument(
          "delta_refresh_period must be in [1, 2^timestamp_bits - 1]");
    }
  }
  if (channel_broadcast) {
    if (algorithm != Algorithm::kFMatrix) {
      return Status::InvalidArgument("channel_broadcast requires the F-Matrix algorithm");
    }
    if (num_groups != 0) {
      return Status::InvalidArgument("channel_broadcast does not support grouped control");
    }
    if (!use_wire_codec) {
      return Status::InvalidArgument("channel_broadcast requires use_wire_codec");
    }
    if (enable_cache) {
      return Status::InvalidArgument("channel_broadcast does not support the client cache");
    }
    if (client_update_fraction > 0.0) {
      return Status::InvalidArgument("channel_broadcast supports read-only clients only");
    }
    BCC_RETURN_IF_ERROR(ChannelFaults().Validate());
    BCC_RETURN_IF_ERROR(FrameCodec::ValidateGeometry(timestamp_bits, channel_frame_bits));
    if (num_objects >= (1u << FrameCodec::kStreamIdBits)) {
      return Status::InvalidArgument("channel_broadcast: num_objects exceeds the stream id space");
    }
    // Every payload stream must fit the 16-bit frame sequence space. The
    // widest streams are a full-matrix refresh (n^2 * ts bits), an object
    // data page, and the degenerate all-entries delta block.
    const uint64_t header_bits = timestamp_bits + FrameCodec::kKindBits +
                                 FrameCodec::kStreamIdBits + FrameCodec::kSeqBits +
                                 FrameCodec::kLastBits + FrameCodec::kPayloadLenBits;
    const uint64_t capacity = channel_frame_bits - header_bits - FrameCodec::kCrcBits;
    const uint64_t n2 = static_cast<uint64_t>(num_objects) * num_objects;
    const uint64_t widest = std::max(
        {FullMatrixControlBits(num_objects, timestamp_bits),
         std::max<uint64_t>(kObjectVersionBits, object_size_bits),
         DeltaCodec::EncodedBits(n2, num_objects, timestamp_bits)});
    if ((widest + capacity - 1) / capacity > (uint64_t{1} << FrameCodec::kSeqBits)) {
      return Status::InvalidArgument(
          "channel_broadcast: a payload stream would overflow the 16-bit frame sequence "
          "space; raise channel_frame_bits or shrink the database");
    }
  }
  if (update_scheme != UpdateScheme::kSequential) {
    if (update_workers == 0) {
      return Status::InvalidArgument("update_workers must be >= 1 for a pooled update scheme");
    }
  }
  if (matrix_mode == MatrixMode::kSparse) {
    if (algorithm != Algorithm::kFMatrix && algorithm != Algorithm::kFMatrixNo) {
      return Status::InvalidArgument("matrix_mode=sparse requires an F-family algorithm");
    }
    if (num_groups != 0) {
      return Status::InvalidArgument(
          "matrix_mode=sparse does not support grouped control (use matrix_mode=hier "
          "for hierarchical grouping)");
    }
    if (enable_cache) {
      return Status::InvalidArgument("matrix_mode=sparse does not support the client cache");
    }
  }
  if (sparse_compaction_period > 0) {
    if (matrix_mode != MatrixMode::kSparse) {
      return Status::InvalidArgument("sparse_compaction_period requires matrix_mode=sparse");
    }
    if (!use_wire_codec) {
      // Compaction only preserves residues; raw-value consumers would see
      // different stamps.
      return Status::InvalidArgument("sparse_compaction_period requires use_wire_codec");
    }
    if (delta_broadcast) {
      return Status::InvalidArgument(
          "sparse_compaction_period is incompatible with delta_broadcast (the delta base "
          "diffs by value, so compaction would emit spurious entries)");
    }
  }
  if (matrix_mode == MatrixMode::kHier) {
    if (algorithm != Algorithm::kFMatrix) {
      return Status::InvalidArgument("matrix_mode=hier requires the F-Matrix algorithm");
    }
    if (num_groups != 0) {
      // The fixed-g GroupMatrix path and the adaptive hierarchy are distinct
      // protocols; mixing them would validate against two different coarse
      // views (see also the fixed-g invariant on BroadcastServer::SetPartition).
      return Status::InvalidArgument("matrix_mode=hier is incompatible with num_groups");
    }
    if (delta_broadcast || channel_broadcast) {
      return Status::InvalidArgument(
          "matrix_mode=hier does not support delta or channel broadcast");
    }
    if (enable_cache) {
      return Status::InvalidArgument("matrix_mode=hier does not support the client cache");
    }
    if (client_update_fraction > 0.0) {
      return Status::InvalidArgument("matrix_mode=hier supports read-only clients only");
    }
    if (update_scheme != UpdateScheme::kSequential) {
      return Status::InvalidArgument("matrix_mode=hier requires the sequential update scheme");
    }
    if (use_wire_codec) {
      // The hierarchical view validates raw absolute stamps (group maxima
      // have no on-air encoding yet); the TS-bit wire study is the
      // dense/sparse path.
      return Status::InvalidArgument("matrix_mode=hier does not support use_wire_codec");
    }
    if (hier_min_groups == 0 || hier_min_groups > hier_max_groups) {
      return Status::InvalidArgument("hier group bounds must satisfy 1 <= min <= max");
    }
    if (hier_initial_groups == 0) {
      return Status::InvalidArgument("hier_initial_groups must be >= 1");
    }
  }
  return Status::OK();
}

std::string_view MatrixModeName(MatrixMode mode) {
  switch (mode) {
    case MatrixMode::kDense:
      return "dense";
    case MatrixMode::kSparse:
      return "sparse";
    case MatrixMode::kHier:
      return "hier";
  }
  return "?";
}

HierMatrixOptions SimConfig::HierOptions() const {
  HierMatrixOptions opts;
  opts.initial_groups = hier_initial_groups;
  opts.min_groups = hier_min_groups;
  opts.max_groups = hier_max_groups;
  opts.refine_limit = hier_refine_limit;
  opts.coarsen_idle_cycles = hier_coarsen_idle_cycles;
  opts.regroup_period = hier_regroup_period;
  opts.split_threshold = hier_split_threshold;
  return opts;
}

Status ParseMatrixOption(std::string_view value, SimConfig* config) {
  if (value == "dense") {
    config->matrix_mode = MatrixMode::kDense;
    return Status::OK();
  }
  if (value == "sparse") {
    config->matrix_mode = MatrixMode::kSparse;
    return Status::OK();
  }
  if (value == "hier") {
    config->matrix_mode = MatrixMode::kHier;
    return Status::OK();
  }
  if (value.starts_with("group:")) {
    const std::string_view digits = value.substr(6);
    uint32_t g = 0;
    if (digits.empty()) return Status::InvalidArgument("--matrix=group:<g> needs a group count");
    for (char ch : digits) {
      if (ch < '0' || ch > '9') {
        return Status::InvalidArgument("--matrix=group:<g> group count must be a number");
      }
      const uint64_t next = uint64_t{g} * 10 + static_cast<uint64_t>(ch - '0');
      if (next > UINT32_MAX) return Status::InvalidArgument("--matrix=group:<g> count overflows");
      g = static_cast<uint32_t>(next);
    }
    if (g == 0) return Status::InvalidArgument("--matrix=group:<g> count must be >= 1");
    config->matrix_mode = MatrixMode::kDense;  // group broadcast of the dense matrix
    config->num_groups = g;
    return Status::OK();
  }
  return Status::InvalidArgument("--matrix must be dense, sparse, group:<g>, or hier");
}

ChannelFaultConfig SimConfig::ChannelFaults() const {
  ChannelFaultConfig faults;
  faults.loss_rate = channel_loss_rate;
  faults.corrupt_rate = channel_corrupt_rate;
  faults.truncate_rate = channel_truncate_rate;
  faults.burst = channel_burst;
  faults.burst_loss_rate = channel_burst_loss_rate;
  faults.burst_enter_rate = channel_burst_enter_rate;
  faults.burst_exit_rate = channel_burst_exit_rate;
  return faults;
}

BroadcastGeometry SimConfig::Geometry() const {
  return ComputeGeometry(algorithm, num_objects, object_size_bits, timestamp_bits, num_groups);
}

std::string SimConfig::ToString() const {
  std::string out = StrFormat(
      "%s: clientLen=%u serverLen=%u serverInt=%llu n=%u objBits=%llu ts=%u groups=%u "
      "cache=%d delta=%d seed=%llu",
      std::string(AlgorithmName(algorithm)).c_str(), client_txn_length, server_txn_length,
      static_cast<unsigned long long>(server_txn_interval), num_objects,
      static_cast<unsigned long long>(object_size_bits), timestamp_bits, num_groups,
      enable_cache ? 1 : 0, delta_broadcast ? 1 : 0, static_cast<unsigned long long>(seed));
  if (matrix_mode != MatrixMode::kDense) {
    out += StrFormat(" matrix=%s", std::string(MatrixModeName(matrix_mode)).c_str());
    if (matrix_mode == MatrixMode::kSparse && sparse_compaction_period > 0) {
      out += StrFormat("(compact=%llu)", static_cast<unsigned long long>(sparse_compaction_period));
    }
    if (matrix_mode == MatrixMode::kHier) {
      out += StrFormat("(g=%u..%u)", hier_min_groups, hier_max_groups);
    }
  }
  if (channel_broadcast) {
    out += StrFormat(" channel(frame=%llu %s)",
                     static_cast<unsigned long long>(channel_frame_bits),
                     ChannelFaults().ToString().c_str());
  }
  if (update_scheme != UpdateScheme::kSequential) {
    out += StrFormat(" update(%s)", std::string(UpdateSchemeName(update_scheme)).c_str());
  }
  return out;
}

}  // namespace bcc
