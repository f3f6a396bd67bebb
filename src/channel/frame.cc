#include "channel/frame.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/bitstream.h"
#include "common/format.h"
#include "matrix/wire.h"

namespace bcc {

namespace {

/// CRC32 lookup tables for slicing-by-8: kCrcTables[0] is the classic
/// byte-at-a-time table, kCrcTables[k][b] the CRC of byte b followed by k
/// zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// True when `nbits` bits of `a` at `a_bit` equal those of `b` at `b_bit`.
bool SameBits(std::span<const uint8_t> a, uint64_t a_bit, std::span<const uint8_t> b,
              uint64_t b_bit, uint64_t nbits) {
  for (uint64_t done = 0; done < nbits;) {
    const unsigned chunk = static_cast<unsigned>(std::min<uint64_t>(nbits - done, 56));
    if (LoadBits(a, a_bit + done, chunk) != LoadBits(b, b_bit + done, chunk)) return false;
    done += chunk;
  }
  return true;
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const auto& t = kCrcTables;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Status FrameCodec::ValidateGeometry(unsigned ts_bits, uint64_t frame_bits) {
  if (ts_bits < 1 || ts_bits > 32) {
    return Status::InvalidArgument("frame geometry: ts_bits must be in [1, 32]");
  }
  if (frame_bits % 8 != 0) {
    return Status::InvalidArgument("frame geometry: frame_bits must be a whole number of bytes");
  }
  const uint64_t header =
      ts_bits + kKindBits + kStreamIdBits + kSeqBits + kLastBits + kPayloadLenBits;
  if (frame_bits < header + kCrcBits + 32) {
    return Status::InvalidArgument(
        StrFormat("frame geometry: frame_bits=%llu leaves no useful payload capacity "
                  "(header %llu + crc %u + 32 minimum payload bits)",
                  static_cast<unsigned long long>(frame_bits),
                  static_cast<unsigned long long>(header), kCrcBits));
  }
  if (frame_bits - header - kCrcBits > 0xFFFFull) {
    return Status::InvalidArgument(
        "frame geometry: payload capacity exceeds the 16-bit payload-length field");
  }
  return Status::OK();
}

FrameCodec::FrameCodec(CycleStampCodec stamp_codec, uint64_t frame_bits)
    : stamp_codec_(stamp_codec), frame_bits_(frame_bits) {
  assert(ValidateGeometry(stamp_codec_.bits(), frame_bits_).ok());
}

std::vector<Frame> FrameCodec::EncodeStream(FrameKind kind, uint32_t stream_id, Cycle cycle,
                                            const Payload& payload) const {
  std::vector<Frame> out;
  size_t used = 0;
  EncodeStreamInto(kind, stream_id, cycle, payload, out, used);
  return out;
}

void FrameCodec::EncodeStreamInto(FrameKind kind, uint32_t stream_id, Cycle cycle,
                                  const Payload& payload, std::vector<Frame>& out,
                                  size_t& used) const {
  assert(stream_id < (1u << kStreamIdBits));
  assert(payload.bits <= payload.bytes.size() * 8);
  const uint64_t capacity = payload_capacity_bits();
  const uint64_t num_frames = payload.bits == 0 ? 1 : (payload.bits + capacity - 1) / capacity;
  assert(num_frames <= (1ull << kSeqBits));

  uint64_t offset = 0;
  for (uint64_t seq = 0; seq < num_frames; ++seq, ++used) {
    const uint64_t chunk = std::min(payload.bits - offset, capacity);
    const bool last = seq + 1 == num_frames;
    Frame& frame = used < out.size() ? out[used] : out.emplace_back();

    BitWriter w(std::move(frame.bytes));
    w.Write(stamp_codec_.Encode(cycle), stamp_codec_.bits());
    w.Write(static_cast<uint32_t>(kind), kKindBits);
    w.Write(stream_id, kStreamIdBits);
    w.Write(static_cast<uint32_t>(seq), kSeqBits);
    w.Write(last ? 1u : 0u, kLastBits);
    w.Write(static_cast<uint32_t>(chunk), kPayloadLenBits);
    w.WriteBits(payload.bytes, offset, chunk);
    offset += chunk;
    // Zero-pad to the CRC position, then seal the frame.
    w.WriteZeros(frame_bits_ - kCrcBits - w.bit_size());
    frame.bytes = std::move(w).Take();
    const uint32_t crc = Crc32(frame.bytes);
    for (unsigned shift = 0; shift < kCrcBits; shift += 8) {
      frame.bytes.push_back(static_cast<uint8_t>(crc >> shift));
    }
  }
}

StatusOr<FrameHeader> FrameCodec::DecodeHeader(std::span<const uint8_t> frame) const {
  if (frame.size() != frame_bytes()) {
    return Status::InvalidArgument(
        StrFormat("frame is %zu bytes, expected %zu", frame.size(), frame_bytes()));
  }
  const size_t body = frame.size() - kCrcBits / 8;
  if (LoadBits(frame, 8 * body, kCrcBits) != Crc32(frame.first(body))) {
    return Status::InvalidArgument("frame CRC mismatch");
  }

  uint64_t bit = 0;
  const auto field = [&](unsigned bits) {
    const uint32_t v = static_cast<uint32_t>(LoadBits(frame, bit, bits));
    bit += bits;
    return v;
  };
  FrameHeader h;
  h.cycle_residue = field(stamp_codec_.bits());
  const uint32_t kind = field(kKindBits);
  if (kind > kMaxFrameKind) return Status::InvalidArgument("unknown frame kind");
  h.kind = static_cast<FrameKind>(kind);
  h.stream_id = field(kStreamIdBits);
  h.seq = field(kSeqBits);
  h.last = field(kLastBits) != 0;
  h.payload_bits = field(kPayloadLenBits);
  if (h.payload_bits > payload_capacity_bits()) {
    return Status::InvalidArgument("frame payload length exceeds capacity");
  }
  // EncodeStream fills every frame but a stream's last one.
  if (!h.last && h.payload_bits != payload_capacity_bits()) {
    return Status::InvalidArgument("non-final frame is not full");
  }
  return h;
}

StatusOr<DecodedFrame> FrameCodec::Decode(const Frame& frame) const {
  DecodedFrame out;
  BCC_ASSIGN_OR_RETURN(out.header, DecodeHeader(frame.bytes));
  out.payload.bits = out.header.payload_bits;
  out.payload.bytes.resize((out.payload.bits + 7) / 8);
  CopyBits(frame.bytes, header_bits(), out.payload.bytes, 0, out.payload.bits);
  return out;
}

void StreamReassembler::Add(const FrameHeader& header, std::span<const uint8_t> src,
                            uint64_t src_bit) {
  if (broken_) return;
  const uint32_t seq = header.seq;
  if (last_seq_known_) {
    // A frame past the last-flagged sequence, or a second, different
    // last-flagged frame, contradicts the stream's claimed extent.
    if (seq > last_seq_ || (header.last && seq != last_seq_)) {
      broken_ = true;
      return;
    }
  } else if (header.last) {
    if (!slices_.empty() && slices_.back().seq > seq) {
      broken_ = true;  // already buffered a frame past the claimed last
      return;
    }
    last_seq_ = seq;
    last_seq_known_ = true;
  }
  // Frames almost always arrive in order: append; otherwise find the slot.
  auto pos = slices_.end();
  if (!slices_.empty() && slices_.back().seq >= seq) {
    pos = std::lower_bound(slices_.begin(), slices_.end(), seq,
                           [](const Slice& s, uint32_t v) { return s.seq < v; });
    if (pos->seq == seq) {
      // Duplicate: ignored, unless two valid frames disagree on its content.
      if (pos->bits != header.payload_bits ||
          !SameBits(bytes_, 8 * pos->offset, src, src_bit, pos->bits)) {
        broken_ = true;
      }
      return;
    }
  }
  const size_t offset = bytes_.size();
  bytes_.resize(offset + (header.payload_bits + 7) / 8);
  CopyBits(src, src_bit, bytes_, 8 * offset, header.payload_bits);
  slices_.insert(pos, Slice{seq, header.payload_bits, offset});
}

const Payload& StreamReassembler::Take() {
  BitWriter w(std::move(out_.bytes));
  for (const Slice& s : slices_) w.WriteBits(bytes_, 8 * s.offset, s.bits);
  out_.bits = w.bit_size();
  out_.bytes = std::move(w).Take();
  return out_;
}

void StreamReassembler::Clear() {
  slices_.clear();
  bytes_.clear();
  last_seq_ = 0;
  last_seq_known_ = false;
  broken_ = false;
}

Payload EncodeIndexPayload(const CycleIndex& index) {
  BitWriter w;
  w.Write(0xBCC1u, 16);  // magic
  w.Write(index.control_mode, 2);
  w.Write(index.num_objects, FrameCodec::kStreamIdBits);
  w.Write(index.cycle_low, 32);
  const uint64_t bits = w.bit_size();
  return Payload{std::move(w).Take(), bits};
}

StatusOr<CycleIndex> DecodeIndexPayload(const Payload& payload) {
  const uint64_t expected = 16 + 2 + FrameCodec::kStreamIdBits + 32;
  if (payload.bits != expected) {
    return Status::InvalidArgument("index payload has the wrong size");
  }
  BitReader r(payload.bytes);
  uint32_t v = 0;
  BCC_RETURN_IF_ERROR(r.Read(16, &v));
  if (v != 0xBCC1u) return Status::InvalidArgument("index payload magic mismatch");
  CycleIndex index;
  BCC_RETURN_IF_ERROR(r.Read(2, &v));
  if (v > CycleIndex::kControlRefresh) {
    return Status::InvalidArgument("index payload has an unknown control mode");
  }
  index.control_mode = static_cast<uint8_t>(v);
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kStreamIdBits, &v));
  index.num_objects = v;
  BCC_RETURN_IF_ERROR(r.Read(32, &v));
  index.cycle_low = v;
  return index;
}

Payload EncodeObjectPayload(const ObjectVersion& version, uint64_t object_size_bits) {
  Payload out;
  EncodeObjectPayloadInto(version, object_size_bits, &out);
  return out;
}

void EncodeObjectPayloadInto(const ObjectVersion& version, uint64_t object_size_bits,
                             Payload* out) {
  BitWriter w(std::move(out->bytes));
  w.Write(static_cast<uint32_t>(version.value & 0xFFFFFFFFull), 32);
  w.Write(static_cast<uint32_t>(version.value >> 32), 32);
  w.Write(version.writer, 32);
  w.Write(static_cast<uint32_t>(version.cycle & 0xFFFFFFFFull), 32);
  w.Write(static_cast<uint32_t>(version.cycle >> 32), 32);
  if (object_size_bits > kObjectVersionBits) w.WriteZeros(object_size_bits - kObjectVersionBits);
  out->bits = w.bit_size();
  out->bytes = std::move(w).Take();
}

StatusOr<ObjectVersion> DecodeObjectPayload(const Payload& payload) {
  if (payload.bits < kObjectVersionBits) {
    return Status::InvalidArgument("object payload shorter than an ObjectVersion");
  }
  if (payload.bytes.size() * 8 < kObjectVersionBits) {
    return Status::OutOfRange("bit buffer exhausted");
  }
  const std::span<const uint8_t> bytes = payload.bytes;
  ObjectVersion version;
  version.value = LoadBits(bytes, 0, 32) | LoadBits(bytes, 32, 32) << 32;
  version.writer = static_cast<uint32_t>(LoadBits(bytes, 64, 32));
  version.cycle = LoadBits(bytes, 96, 32) | LoadBits(bytes, 128, 32) << 32;
  return version;
}

std::vector<Frame> EncodeCycleFrames(const CycleSnapshot& snap, const FrameCodec& codec,
                                     uint64_t object_size_bits) {
  std::vector<Frame> out;
  EncodeCycleFramesInto(snap, codec, object_size_bits, out);
  return out;
}

void EncodeCycleFramesInto(const CycleSnapshot& snap, const FrameCodec& codec,
                           uint64_t object_size_bits, std::vector<Frame>& out) {
  const CycleStampCodec& sc = codec.stamp_codec();
  const uint32_t n = static_cast<uint32_t>(snap.values.size());
  size_t used = 0;
  Payload page;  // object data page, rebuilt in place for every object

  const auto emit = [&](FrameKind kind, uint32_t stream_id, const Payload& payload) {
    codec.EncodeStreamInto(kind, stream_id, snap.cycle, payload, out, used);
  };

  CycleIndex index;
  index.num_objects = n;
  index.cycle_low = static_cast<uint32_t>(snap.cycle & 0xFFFFFFFFull);
  index.control_mode = !snap.delta.has_value() ? CycleIndex::kControlColumns
                       : snap.delta->full_refresh ? CycleIndex::kControlRefresh
                                                  : CycleIndex::kControlDelta;
  emit(FrameKind::kIndex, 0, EncodeIndexPayload(index));

  if (snap.delta.has_value()) {
    // Snapshot+delta mode: the control segment rides in one block right
    // after the index.
    if (snap.delta->full_refresh) {
      // Sparse snapshots pack byte-identically to dense ones (the on-air
      // format stays dense), so downstream frames and seeded loss patterns
      // do not depend on the server's representation.
      emit(FrameKind::kControlRefresh, 0,
           Payload{PackMatrix(snap.control(), sc), FullMatrixControlBits(n, sc.bits())});
    } else {
      emit(FrameKind::kControlDelta, 0,
           Payload{DeltaCodec::Pack(snap.delta->entries, n, sc),
                   DeltaCodec::EncodedBits(snap.delta->entries.size(), n, sc.bits())});
    }
    for (uint32_t j = 0; j < n; ++j) {
      EncodeObjectPayloadInto(snap.values[j], object_size_bits, &page);
      emit(FrameKind::kData, j, page);
    }
    out.resize(used);
    return;
  }

  // Full mode: the on-air slot layout — each object's data page immediately
  // followed by its control column.
  const ControlView control = snap.control();
  std::vector<Cycle> scratch;
  for (uint32_t j = 0; j < n; ++j) {
    EncodeObjectPayloadInto(snap.values[j], object_size_bits, &page);
    emit(FrameKind::kData, j, page);
    emit(FrameKind::kControlColumn, j,
         Payload{PackStamps(control.Column(j, scratch), sc),
                 static_cast<uint64_t>(n) * sc.bits()});
  }
  out.resize(used);
}

}  // namespace bcc
