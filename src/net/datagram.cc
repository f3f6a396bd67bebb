#include "net/datagram.h"

#include <algorithm>
#include <cstring>

#include "common/format.h"

namespace bcc {

namespace {

constexpr size_t kMsgHeaderBytes = 3;  // magic u16 + kind u8
constexpr size_t kCycleHeaderBytes = kMsgHeaderBytes + 8 + 5 * 2;

void PutHeader(std::vector<uint8_t>* out, MsgKind kind) {
  PutU16(out, kNetMagic);
  out->push_back(static_cast<uint8_t>(kind));
}

/// Validates magic + kind and returns a reader positioned at the body.
StatusOr<ByteReader> OpenBody(std::span<const uint8_t> bytes, MsgKind expected) {
  BCC_ASSIGN_OR_RETURN(const MsgKind kind, PeekKind(bytes));
  if (kind != expected) {
    return Status::InvalidArgument(StrFormat("expected message kind %u, got %u",
                                             static_cast<unsigned>(expected),
                                             static_cast<unsigned>(kind)));
  }
  return ByteReader(bytes.subspan(kMsgHeaderBytes));
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(StrFormat("truncated %s message", what));
}

void PutChannelStats(std::vector<uint8_t>* out, const ChannelStats& ch) {
  PutU64(out, ch.frames_sent);
  PutU64(out, ch.frames_dropped);
  PutU64(out, ch.frames_corrupted);
  PutU64(out, ch.frames_truncated);
  PutU64(out, ch.frames_delivered);
  PutU64(out, ch.frames_rejected);
  PutU64(out, ch.frames_delivered_corrupt);
  PutU64(out, ch.control_losses);
  PutU64(out, ch.data_losses);
  PutU64(out, ch.stalls);
  PutU64(out, ch.resyncs);
  PutU64(out, ch.tracker_desyncs);
  PutU64(out, ch.loss_attributed_aborts);
}

bool ReadChannelStats(ByteReader* r, ChannelStats* ch) {
  return r->ReadU64(&ch->frames_sent) && r->ReadU64(&ch->frames_dropped) &&
         r->ReadU64(&ch->frames_corrupted) && r->ReadU64(&ch->frames_truncated) &&
         r->ReadU64(&ch->frames_delivered) && r->ReadU64(&ch->frames_rejected) &&
         r->ReadU64(&ch->frames_delivered_corrupt) && r->ReadU64(&ch->control_losses) &&
         r->ReadU64(&ch->data_losses) && r->ReadU64(&ch->stalls) && r->ReadU64(&ch->resyncs) &&
         r->ReadU64(&ch->tracker_desyncs) && r->ReadU64(&ch->loss_attributed_aborts);
}

}  // namespace

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) out->push_back(static_cast<uint8_t>(v >> shift));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) out->push_back(static_cast<uint8_t>(v >> shift));
}

bool ByteReader::ReadU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = bytes_[pos_++];
  return true;
}

bool ByteReader::ReadU16(uint16_t* v) {
  if (remaining() < 2) return false;
  *v = static_cast<uint16_t>(bytes_[pos_] | (bytes_[pos_ + 1] << 8));
  pos_ += 2;
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = out;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = out;
  return true;
}

bool ByteReader::ReadBytes(size_t n, std::span<const uint8_t>* v) {
  if (remaining() < n) return false;
  *v = bytes_.subspan(pos_, n);
  pos_ += n;
  return true;
}

StatusOr<MsgKind> PeekKind(std::span<const uint8_t> bytes) {
  if (bytes.size() < kMsgHeaderBytes) return Truncated("net");
  const uint16_t magic = static_cast<uint16_t>(bytes[0] | (bytes[1] << 8));
  if (magic != kNetMagic) {
    return Status::InvalidArgument(StrFormat("bad net magic 0x%04X", magic));
  }
  const uint8_t kind = bytes[2];
  if (kind < static_cast<uint8_t>(MsgKind::kHello) ||
      kind > static_cast<uint8_t>(MsgKind::kMetrics)) {
    return Status::InvalidArgument(StrFormat("bad message kind %u", kind));
  }
  return static_cast<MsgKind>(kind);
}

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kHello);
  PutU32(&out, msg.client_id);
  return out;
}

StatusOr<HelloMsg> DecodeHello(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kHello));
  HelloMsg msg;
  if (!r.ReadU32(&msg.client_id)) return Truncated("HELLO");
  return msg;
}

std::vector<uint8_t> EncodeHelloAck(const HelloAckMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kHelloAck);
  PutU32(&out, msg.client_index);
  PutU32(&out, msg.num_objects);
  out.push_back(msg.ts_bits);
  out.push_back(msg.control_mode);
  PutU32(&out, msg.frame_bits);
  PutU64(&out, msg.cycles);
  return out;
}

StatusOr<HelloAckMsg> DecodeHelloAck(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kHelloAck));
  HelloAckMsg msg;
  if (!r.ReadU32(&msg.client_index) || !r.ReadU32(&msg.num_objects) || !r.ReadU8(&msg.ts_bits) ||
      !r.ReadU8(&msg.control_mode) || !r.ReadU32(&msg.frame_bits) || !r.ReadU64(&msg.cycles)) {
    return Truncated("HELLO_ACK");
  }
  return msg;
}

std::vector<uint8_t> EncodeCycleData(const CycleDataHeader& header,
                                     std::span<const Frame> frames) {
  std::vector<uint8_t> out;
  out.reserve(kCycleHeaderBytes + frames.size() * header.frame_bytes);
  PutHeader(&out, MsgKind::kCycleData);
  PutU64(&out, header.cycle);
  PutU16(&out, header.dgram_seq);
  PutU16(&out, header.dgram_count);
  PutU16(&out, header.frame_count);
  PutU16(&out, header.cycle_frames);
  PutU16(&out, header.frame_bytes);
  for (const Frame& f : frames) out.insert(out.end(), f.bytes.begin(), f.bytes.end());
  return out;
}

StatusOr<CycleDataMsg> DecodeCycleData(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kCycleData));
  CycleDataMsg msg;
  CycleDataHeader& h = msg.header;
  if (!r.ReadU64(&h.cycle) || !r.ReadU16(&h.dgram_seq) || !r.ReadU16(&h.dgram_count) ||
      !r.ReadU16(&h.frame_count) || !r.ReadU16(&h.cycle_frames) || !r.ReadU16(&h.frame_bytes)) {
    return Truncated("CYCLE_DATA");
  }
  if (h.frame_bytes == 0) return Status::InvalidArgument("CYCLE_DATA with frame_bytes == 0");
  // A truncated datagram delivers only the frames that arrived whole; the
  // partial tail frame is channel loss, not a framing error.
  msg.frames.reserve(std::min<size_t>(h.frame_count, r.remaining() / h.frame_bytes));
  for (uint16_t i = 0; i < h.frame_count; ++i) {
    std::span<const uint8_t> slice;
    if (!r.ReadBytes(h.frame_bytes, &slice)) break;
    Frame f;
    f.bytes.assign(slice.begin(), slice.end());
    msg.frames.push_back(std::move(f));
  }
  return msg;
}

std::vector<uint8_t> EncodeStatsReq(const StatsReqMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kStatsReq);
  PutU64(&out, msg.final_cycle);
  return out;
}

StatusOr<StatsReqMsg> DecodeStatsReq(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kStatsReq));
  StatsReqMsg msg;
  if (!r.ReadU64(&msg.final_cycle)) return Truncated("STATS_REQ");
  return msg;
}

std::vector<uint8_t> EncodeStats(const StatsMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kStats);
  PutU32(&out, msg.client_index);
  PutU64(&out, msg.digest);
  PutU64(&out, msg.txns);
  PutU64(&out, msg.commits);
  PutU64(&out, msg.aborts);
  PutU64(&out, msg.p50_us);
  PutU64(&out, msg.p99_us);
  PutChannelStats(&out, msg.channel);
  return out;
}

StatusOr<StatsMsg> DecodeStats(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kStats));
  StatsMsg msg;
  if (!r.ReadU32(&msg.client_index) || !r.ReadU64(&msg.digest) || !r.ReadU64(&msg.txns) ||
      !r.ReadU64(&msg.commits) || !r.ReadU64(&msg.aborts) || !r.ReadU64(&msg.p50_us) ||
      !r.ReadU64(&msg.p99_us) || !ReadChannelStats(&r, &msg.channel)) {
    return Truncated("STATS");
  }
  return msg;
}

std::vector<uint8_t> EncodeUpdate(const UpdateMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kUpdate);
  PutU32(&out, msg.client_index);
  PutU32(&out, msg.seq);
  PutU16(&out, static_cast<uint16_t>(msg.reads.size()));
  PutU16(&out, static_cast<uint16_t>(msg.writes.size()));
  for (const ReadRecord& r : msg.reads) {
    PutU32(&out, r.object);
    PutU64(&out, r.cycle);
  }
  for (const ObjectId object : msg.writes) PutU32(&out, object);
  return out;
}

StatusOr<UpdateMsg> DecodeUpdate(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kUpdate));
  UpdateMsg msg;
  uint16_t num_reads = 0, num_writes = 0;
  if (!r.ReadU32(&msg.client_index) || !r.ReadU32(&msg.seq) || !r.ReadU16(&num_reads) ||
      !r.ReadU16(&num_writes)) {
    return Truncated("UPDATE");
  }
  msg.reads.resize(num_reads);
  for (ReadRecord& read : msg.reads) {
    if (!r.ReadU32(&read.object) || !r.ReadU64(&read.cycle)) return Truncated("UPDATE");
  }
  msg.writes.resize(num_writes);
  for (ObjectId& object : msg.writes) {
    if (!r.ReadU32(&object)) return Truncated("UPDATE");
  }
  return msg;
}

std::vector<uint8_t> EncodeUpdateReply(const UpdateReplyMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kUpdateReply);
  PutU32(&out, msg.seq);
  out.push_back(msg.accepted ? 1 : 0);
  return out;
}

StatusOr<UpdateReplyMsg> DecodeUpdateReply(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kUpdateReply));
  UpdateReplyMsg msg;
  uint8_t accepted = 0;
  if (!r.ReadU32(&msg.seq) || !r.ReadU8(&accepted)) return Truncated("UPDATE_REPLY");
  msg.accepted = accepted != 0;
  return msg;
}

std::vector<uint8_t> EncodeMetricsReq(const MetricsReqMsg& msg) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kMetricsReq);
  PutU32(&out, msg.token);
  return out;
}

StatusOr<MetricsReqMsg> DecodeMetricsReq(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kMetricsReq));
  MetricsReqMsg msg;
  if (!r.ReadU32(&msg.token)) return Truncated("METRICS_REQ");
  return msg;
}

std::vector<uint8_t> EncodeMetrics(const MetricsMsg& msg, size_t max_json_bytes) {
  std::vector<uint8_t> out;
  PutHeader(&out, MsgKind::kMetrics);
  PutU32(&out, msg.token);
  out.push_back(msg.node_kind);
  const bool cut = msg.json.size() > max_json_bytes;
  out.push_back(msg.truncated || cut ? 1 : 0);
  const size_t len = cut ? max_json_bytes : msg.json.size();
  PutU32(&out, static_cast<uint32_t>(len));
  out.insert(out.end(), msg.json.begin(), msg.json.begin() + static_cast<ptrdiff_t>(len));
  return out;
}

StatusOr<MetricsMsg> DecodeMetrics(std::span<const uint8_t> bytes) {
  BCC_ASSIGN_OR_RETURN(ByteReader r, OpenBody(bytes, MsgKind::kMetrics));
  MetricsMsg msg;
  uint8_t truncated = 0;
  uint32_t len = 0;
  if (!r.ReadU32(&msg.token) || !r.ReadU8(&msg.node_kind) || !r.ReadU8(&truncated) ||
      !r.ReadU32(&len)) {
    return Truncated("METRICS");
  }
  msg.truncated = truncated != 0;
  std::span<const uint8_t> json;
  if (!r.ReadBytes(len, &json)) return Truncated("METRICS");
  msg.json.assign(json.begin(), json.end());
  return msg;
}

std::vector<std::vector<uint8_t>> PackCycleDatagrams(Cycle cycle, std::span<const Frame> frames,
                                                     size_t dgram_bytes) {
  std::vector<std::vector<uint8_t>> out;
  if (frames.empty()) return out;
  const size_t frame_bytes = frames[0].bytes.size();
  const size_t budget =
      dgram_bytes > kCycleHeaderBytes ? dgram_bytes - kCycleHeaderBytes : frame_bytes;
  const size_t per_dgram = budget / frame_bytes > 0 ? budget / frame_bytes : 1;
  const size_t dgram_count = (frames.size() + per_dgram - 1) / per_dgram;

  CycleDataHeader header;
  header.cycle = cycle;
  header.dgram_count = static_cast<uint16_t>(dgram_count);
  header.cycle_frames = static_cast<uint16_t>(frames.size());
  header.frame_bytes = static_cast<uint16_t>(frame_bytes);
  out.reserve(dgram_count);
  for (size_t start = 0, seq = 0; start < frames.size(); start += per_dgram, ++seq) {
    const size_t count = std::min(per_dgram, frames.size() - start);
    header.dgram_seq = static_cast<uint16_t>(seq);
    header.frame_count = static_cast<uint16_t>(count);
    out.push_back(EncodeCycleData(header, frames.subspan(start, count)));
  }
  return out;
}

}  // namespace bcc
