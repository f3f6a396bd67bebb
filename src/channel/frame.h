// Frame codec for the lossy broadcast channel.
//
// Each broadcast cycle's on-air content — the index segment, every object's
// data page, and the control information (F-Matrix columns in full mode, a
// delta block or full refresh in snapshot+delta mode) — is packetized into
// fixed-size frames. A frame carries a header (cycle number mod 2^ts, frame
// kind, stream id, sequence number, last-frame flag, payload length), a
// bit-packed payload slice, zero padding, and a CRC32 trailer. Receivers
// reassemble per-(kind, stream) payloads from contiguous sequence numbers
// and reject anything whose CRC or framing fails — a lost or damaged frame
// makes a client MISS information (it must then stall; client/receiver.h),
// it never makes the client accept a corrupted stamp as valid.
//
// Frame layout (frame_bits total, byte-aligned, LSB-first bit packing):
//   cycle residue    ts bits   cycle number mod 2^ts (ties the frame to the
//                              cycle it was broadcast in)
//   kind             3 bits    FrameKind
//   stream id        20 bits   object id for data/column streams, else 0
//   sequence         16 bits   position within the stream, from 0
//   last flag        1 bit     set on the stream's final frame
//   payload length   16 bits   payload bits carried by THIS frame
//   payload          up to payload_capacity_bits()
//   zero padding     to frame_bits - 32
//   CRC32            32 bits   IEEE polynomial, over all preceding bytes

#ifndef BCC_CHANNEL_FRAME_H_
#define BCC_CHANNEL_FRAME_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "common/statusor.h"
#include "server/broadcast_server.h"

namespace bcc {

/// CRC32 (IEEE 802.3 polynomial, reflected; slicing-by-8). Exposed for tests.
uint32_t Crc32(std::span<const uint8_t> bytes);

/// What a frame carries.
enum class FrameKind : uint8_t {
  kIndex = 0,           ///< per-cycle index segment (mode, n, cycle)
  kData = 1,            ///< object payload; stream id = object id
  kControlColumn = 2,   ///< one F-Matrix column (full mode); stream id = column
  kControlDelta = 3,    ///< sparse delta block (snapshot+delta mode)
  kControlRefresh = 4,  ///< full-matrix refresh (snapshot+delta mode)
};
inline constexpr uint8_t kMaxFrameKind = static_cast<uint8_t>(FrameKind::kControlRefresh);

/// One fixed-size frame as it travels on the air.
struct Frame {
  std::vector<uint8_t> bytes;
};

/// A bit-exact payload: `bits` meaningful bits, zero-padded to whole bytes.
struct Payload {
  std::vector<uint8_t> bytes;
  uint64_t bits = 0;
};

/// Decoded header of a CRC-valid frame.
struct FrameHeader {
  uint32_t cycle_residue = 0;
  FrameKind kind = FrameKind::kIndex;
  uint32_t stream_id = 0;
  uint32_t seq = 0;
  bool last = false;
  uint32_t payload_bits = 0;
};

/// A CRC-valid frame split into header and payload slice.
struct DecodedFrame {
  FrameHeader header;
  Payload payload;
};

/// Packetizes payload streams into fixed-size frames and back.
class FrameCodec {
 public:
  static constexpr unsigned kKindBits = 3;
  static constexpr unsigned kStreamIdBits = 20;
  static constexpr unsigned kSeqBits = 16;
  static constexpr unsigned kLastBits = 1;
  static constexpr unsigned kPayloadLenBits = 16;
  static constexpr unsigned kCrcBits = 32;

  /// Frame geometry sanity: byte-aligned, header + CRC + a useful payload
  /// capacity (>= 32 bits) must fit, and the capacity must be addressable by
  /// the 16-bit payload-length field.
  static Status ValidateGeometry(unsigned ts_bits, uint64_t frame_bits);

  /// `frame_bits` must satisfy ValidateGeometry for the stamp codec's width.
  FrameCodec(CycleStampCodec stamp_codec, uint64_t frame_bits);

  const CycleStampCodec& stamp_codec() const { return stamp_codec_; }
  uint64_t frame_bits() const { return frame_bits_; }
  size_t frame_bytes() const { return static_cast<size_t>(frame_bits_ / 8); }
  uint64_t header_bits() const {
    return stamp_codec_.bits() + kKindBits + kStreamIdBits + kSeqBits + kLastBits +
           kPayloadLenBits;
  }
  uint64_t payload_capacity_bits() const { return frame_bits_ - header_bits() - kCrcBits; }

  /// Slices `payload` into >= 1 fixed-size frames (sequence 0.., last flag on
  /// the final one). An empty payload still yields one frame.
  std::vector<Frame> EncodeStream(FrameKind kind, uint32_t stream_id, Cycle cycle,
                                  const Payload& payload) const;

  /// Appends the stream's frames into `out` starting at index `*used`
  /// (advancing it), overwriting existing elements in place. Each frame is
  /// written straight into its reused byte buffer, so a caller cycling one
  /// vector re-fills the same buffers every cycle instead of reallocating.
  void EncodeStreamInto(FrameKind kind, uint32_t stream_id, Cycle cycle, const Payload& payload,
                        std::vector<Frame>& out, size_t& used) const;

  /// Validates size, CRC, and header fields of a received frame without
  /// copying it; the payload slice is header.payload_bits bits of `frame`
  /// starting at bit header_bits(). InvalidArgument on any framing violation.
  StatusOr<FrameHeader> DecodeHeader(std::span<const uint8_t> frame) const;

  /// DecodeHeader plus a copy of the frame's payload slice.
  StatusOr<DecodedFrame> Decode(const Frame& frame) const;

 private:
  CycleStampCodec stamp_codec_;
  uint64_t frame_bits_;
};

/// Reassembles one (kind, stream id) payload from decoded frames fed in any
/// order — datagram semantics. Duplicates are ignored, reordering within the
/// stream is buffered, and a missing frame just leaves the stream incomplete
/// (the receiver's stall-on-miss path handles it). Only a *contradictory*
/// stream is marked broken: a frame sequenced past the last-flagged frame,
/// two different last-flagged sequence numbers, or two CRC-valid frames for
/// the same sequence number that disagree on their payload. A broken stream
/// is never complete.
///
/// Slices are copied into one flat byte buffer (each starting on a byte
/// boundary) indexed by a seq-sorted slice table, and Take() concatenates
/// them into a reused output payload; Clear() keeps every buffer's capacity,
/// so a reassembler reused cycle after cycle stops allocating.
class StreamReassembler {
 public:
  void Add(const DecodedFrame& frame) { Add(frame.header, frame.payload.bytes, 0); }
  /// Same, with the frame's payload slice given as header.payload_bits bits
  /// of `src` starting at bit `src_bit` (a received frame's bytes and
  /// FrameCodec::header_bits(), after FrameCodec::DecodeHeader).
  void Add(const FrameHeader& header, std::span<const uint8_t> src, uint64_t src_bit);

  bool complete() const {
    return !broken_ && last_seq_known_ && slices_.size() == static_cast<size_t>(last_seq_) + 1;
  }
  bool broken() const { return broken_; }
  /// The reassembled payload, frames concatenated in sequence order
  /// (meaningful only when complete(); valid until the next Add or Clear).
  const Payload& Take();

  /// Forgets the stream, keeping buffer capacity for the next one.
  void Clear();

 private:
  struct Slice {
    uint32_t seq;
    uint32_t bits;
    size_t offset;  // byte offset into bytes_
  };
  std::vector<Slice> slices_;  // sorted by seq, dups ignored
  std::vector<uint8_t> bytes_;
  Payload out_;
  uint32_t last_seq_ = 0;
  bool last_seq_known_ = false;
  bool broken_ = false;
};

/// Index-segment payload: tells receivers how to interpret this cycle's
/// control segment (load-bearing in snapshot+delta mode).
struct CycleIndex {
  static constexpr uint8_t kControlColumns = 0;  ///< per-object column streams
  static constexpr uint8_t kControlDelta = 1;    ///< one sparse delta block
  static constexpr uint8_t kControlRefresh = 2;  ///< one full-matrix refresh

  uint8_t control_mode = kControlColumns;
  uint32_t num_objects = 0;
  uint32_t cycle_low = 0;  ///< low 32 bits of the absolute cycle
};

Payload EncodeIndexPayload(const CycleIndex& index);
StatusOr<CycleIndex> DecodeIndexPayload(const Payload& payload);

/// Object data page: the 160-bit ObjectVersion (value, writer, cycle) padded
/// with zeros to the simulated object size, so a bigger object spans more
/// frames and faces a proportionally higher loss probability.
inline constexpr uint64_t kObjectVersionBits = 160;

Payload EncodeObjectPayload(const ObjectVersion& version, uint64_t object_size_bits);
/// Same, re-filling `*out` in place (its byte buffer is reused).
void EncodeObjectPayloadInto(const ObjectVersion& version, uint64_t object_size_bits,
                             Payload* out);
/// Reads only the leading kObjectVersionBits; the zero padding is not examined.
StatusOr<ObjectVersion> DecodeObjectPayload(const Payload& payload);

/// Packetizes one cycle's whole broadcast: the index segment, then per object
/// its data page followed by its control column (full mode), or the control
/// block right after the index (snapshot+delta mode, whose slot layout keeps
/// control in one segment). Frame order is the on-air order, so burst losses
/// hit adjacent slots exactly as they would on a real channel.
std::vector<Frame> EncodeCycleFrames(const CycleSnapshot& snap, const FrameCodec& codec,
                                     uint64_t object_size_bits);

/// Capacity-preserving variant: encodes into `out` (resized to the frame
/// count), reusing its vector storage and per-frame byte buffers across
/// cycles. The engines call this once per cycle with a long-lived buffer.
void EncodeCycleFramesInto(const CycleSnapshot& snap, const FrameCodec& codec,
                           uint64_t object_size_bits, std::vector<Frame>& out);

}  // namespace bcc

#endif  // BCC_CHANNEL_FRAME_H_
