#include "client/receiver.h"

#include "matrix/wire.h"

namespace bcc {

ChannelReceiver::ChannelReceiver(uint32_t num_objects, FrameCodec codec,
                                 DeltaMatrixTracker* tracker)
    : n_(num_objects),
      codec_(codec),
      tracker_(tracker),
      matrix_(num_objects),
      col_cycle_(num_objects, 0),
      values_(num_objects),
      data_cycle_(num_objects, 0),
      data_streams_(num_objects),
      column_streams_(tracker == nullptr ? num_objects : 0) {}

StreamReassembler* ChannelReceiver::Stream(FrameKind kind, uint32_t stream_id) {
  switch (kind) {
    case FrameKind::kData:
      return stream_id < data_streams_.size() ? &data_streams_[stream_id] : nullptr;
    case FrameKind::kControlColumn:
      return stream_id < column_streams_.size() ? &column_streams_[stream_id] : nullptr;
    case FrameKind::kIndex:
      return stream_id == 0 ? &index_stream_ : nullptr;
    case FrameKind::kControlDelta:
      return stream_id == 0 ? &delta_stream_ : nullptr;
    case FrameKind::kControlRefresh:
      return stream_id == 0 ? &refresh_stream_ : nullptr;
  }
  return nullptr;
}

void ChannelReceiver::IngestCycle(Cycle cycle, const Transmission& tx, SimTime now) {
  stats_.frames_sent += tx.sent;
  stats_.frames_dropped += tx.dropped;
  stats_.frames_corrupted += tx.corrupted;
  stats_.frames_truncated += tx.truncated;
  stats_.frames_delivered += tx.frames.size();
  if (trace_ != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kFrameRx;
    e.time = now;
    e.cycle = cycle;
    e.value = tx.frames.size();
    trace_->Record(e);
  }

  for (StreamReassembler& s : data_streams_) s.Clear();
  for (StreamReassembler& s : column_streams_) s.Clear();
  index_stream_.Clear();
  delta_stream_.Clear();
  refresh_stream_.Clear();

  const uint32_t residue = codec_.stamp_codec().Encode(cycle);
  for (const Delivery& d : tx.frames) {
    const StatusOr<FrameHeader> header = codec_.DecodeHeader(d.frame.bytes);
    if (!header.ok() || header->cycle_residue != residue) {
      ++stats_.frames_rejected;
      continue;
    }
    // A damaged frame that still passes CRC and framing would be delivered as
    // valid — counted so the sweep can prove it (essentially) never happens.
    if (d.corrupted) ++stats_.frames_delivered_corrupt;
    if (StreamReassembler* s = Stream(header->kind, header->stream_id)) {
      s->Add(*header, d.frame.bytes, codec_.header_bits());
    }
  }

  const auto complete = [this](FrameKind kind, uint32_t stream_id) -> StreamReassembler* {
    StreamReassembler* s = Stream(kind, stream_id);
    return s != nullptr && s->complete() ? s : nullptr;
  };

  // Data pages travel the same way in both control modes.
  for (uint32_t j = 0; j < n_; ++j) {
    if (StreamReassembler* s = complete(FrameKind::kData, j)) {
      const StatusOr<ObjectVersion> version = DecodeObjectPayload(s->Take());
      if (version.ok()) {
        values_[j] = *version;
        data_cycle_[j] = cycle;
      }
    }
    if (data_cycle_[j] != cycle) ++stats_.data_losses;
  }

  if (tracker_ == nullptr) {
    // Full mode: each column stream lands independently. Stamps are decoded
    // anchored at the receive cycle; validation re-encodes them, so the
    // windowed decode is congruence-preserving.
    bool all_ok = true;
    for (uint32_t j = 0; j < n_; ++j) {
      if (StreamReassembler* s = complete(FrameKind::kControlColumn, j)) {
        const Payload& payload = s->Take();
        const uint64_t column_bits = static_cast<uint64_t>(n_) * codec_.stamp_codec().bits();
        const StatusOr<std::vector<Cycle>> stamps =
            UnpackStamps(payload.bytes, n_, codec_.stamp_codec(), cycle);
        if (stamps.ok() && payload.bits == column_bits) {
          for (uint32_t i = 0; i < n_; ++i) matrix_.Set(i, j, (*stamps)[i]);
          col_cycle_[j] = cycle;
        }
      }
      if (col_cycle_[j] != cycle) {
        ++stats_.control_losses;
        all_ok = false;
      }
    }
    if (all_ok != prev_control_ok_ && trace_ != nullptr) {
      TraceEvent e;
      e.type = all_ok ? TraceEventType::kResync : TraceEventType::kDesync;
      e.time = now;
      e.cycle = cycle;
      trace_->Record(e);
    }
    if (all_ok && !prev_control_ok_) ++stats_.resyncs;
    prev_control_ok_ = all_ok;
    return;
  }
  tracker_->set_trace_now(now);

  // Snapshot+delta mode: the index segment is load-bearing — it names the
  // control mode for the cycle. Losing it (or the control block itself)
  // means the cycle's control is simply never observed; the tracker then
  // desyncs on the next delta's base-cycle gap and waits for a refresh.
  const bool was_synced = tracker_->synced();
  bool observed = false;
  if (StreamReassembler* s = complete(FrameKind::kIndex, 0)) {
    const StatusOr<CycleIndex> index = DecodeIndexPayload(s->Take());
    if (index.ok() && index->num_objects == n_ &&
        index->cycle_low == static_cast<uint32_t>(cycle & 0xFFFFFFFFull) &&
        index->control_mode != CycleIndex::kControlColumns) {
      const bool refresh = index->control_mode == CycleIndex::kControlRefresh;
      const FrameKind kind = refresh ? FrameKind::kControlRefresh : FrameKind::kControlDelta;
      if (StreamReassembler* c = complete(kind, 0)) {
        observed = ObserveControl(cycle, refresh, c->Take());
      }
    }
  }
  if (!observed) ++stats_.control_losses;
  if (was_synced && !tracker_->synced()) ++stats_.tracker_desyncs;
  if (!was_synced && tracker_->synced() && ever_synced_) ++stats_.resyncs;
  if (tracker_->synced()) ever_synced_ = true;
}

bool ChannelReceiver::ObserveControl(Cycle cycle, bool refresh, const Payload& payload) {
  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_refresh = refresh;
  // The byte-level unpackers cannot see a stream that lost its final bits
  // (zero padding fills them), so the bit count must match exactly too.
  if (refresh) {
    const StatusOr<FMatrix> on_air =
        UnpackMatrix(payload.bytes, n_, codec_.stamp_codec(), cycle);
    if (!on_air.ok() || payload.bits != FullMatrixControlBits(n_, codec_.stamp_codec().bits())) {
      return false;
    }
    tracker_->Observe(ctl, *on_air);
    return true;
  }
  ctl.base_cycle = cycle - 1;
  StatusOr<std::vector<DeltaCodec::Entry>> entries =
      DeltaCodec::Unpack(payload.bytes, n_, codec_.stamp_codec());
  if (!entries.ok() ||
      payload.bits != DeltaCodec::EncodedBits(entries->size(), n_, codec_.stamp_codec().bits())) {
    return false;
  }
  ctl.entries = *std::move(entries);
  tracker_->Observe(ctl, matrix_);  // matrix_ unused for a non-refresh block
  return true;
}

}  // namespace bcc
