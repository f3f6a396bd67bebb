// Tests for the lossy-channel frame codec: geometry validation, header
// round-trips, stream segmentation/reassembly, CRC and framing rejection of
// damaged frames, and the per-cycle payload encodings.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/frame.h"
#include "common/rng.h"
#include "matrix/wire.h"

namespace bcc {
namespace {

FrameCodec SmallCodec(unsigned ts_bits = 8, uint64_t frame_bits = 512) {
  return FrameCodec(CycleStampCodec(ts_bits), frame_bits);
}

Payload BytePayload(std::vector<uint8_t> bytes) {
  Payload p;
  p.bits = 8 * static_cast<uint64_t>(bytes.size());
  p.bytes = std::move(bytes);
  return p;
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  const std::vector<uint8_t> check = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(check), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32Test, SensitiveToEverySingleBitFlip) {
  std::vector<uint8_t> bytes = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  const uint32_t base = Crc32(bytes);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(bytes), base) << "flip of bit " << bit << " went unnoticed";
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, GeometryValidation) {
  EXPECT_TRUE(FrameCodec::ValidateGeometry(8, 512).ok());
  EXPECT_TRUE(FrameCodec::ValidateGeometry(2, 128).ok());
  EXPECT_FALSE(FrameCodec::ValidateGeometry(8, 500).ok()) << "not byte aligned";
  EXPECT_FALSE(FrameCodec::ValidateGeometry(8, 96).ok()) << "no useful payload capacity";
  EXPECT_FALSE(FrameCodec::ValidateGeometry(0, 512).ok());
  EXPECT_FALSE(FrameCodec::ValidateGeometry(33, 512).ok());
  // Capacity must stay addressable by the 16-bit payload-length field.
  EXPECT_FALSE(FrameCodec::ValidateGeometry(8, 1u << 17).ok());
}

TEST(FrameCodecTest, GeometryAccessors) {
  const FrameCodec codec = SmallCodec(8, 512);
  EXPECT_EQ(codec.frame_bits(), 512u);
  EXPECT_EQ(codec.frame_bytes(), 64u);
  EXPECT_EQ(codec.header_bits(), 8u + 56u);
  EXPECT_EQ(codec.payload_capacity_bits(), 512u - 64u - 32u);
}

// ---------------------------------------------------------------------------
// Encode / Decode round-trips
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, HeaderRoundTripsThroughTheWire) {
  const FrameCodec codec = SmallCodec();
  const Payload payload = BytePayload({0x12, 0x34, 0x56});
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kData, /*stream_id=*/77, /*cycle=*/300, payload);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].bytes.size(), codec.frame_bytes());

  const auto decoded = codec.Decode(frames[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->header.cycle_residue, codec.stamp_codec().Encode(300));
  EXPECT_EQ(decoded->header.kind, FrameKind::kData);
  EXPECT_EQ(decoded->header.stream_id, 77u);
  EXPECT_EQ(decoded->header.seq, 0u);
  EXPECT_TRUE(decoded->header.last);
  EXPECT_EQ(decoded->payload.bits, payload.bits);
  EXPECT_EQ(decoded->payload.bytes, payload.bytes);
}

TEST(FrameCodecTest, EmptyPayloadStillYieldsOneFrame) {
  const FrameCodec codec = SmallCodec();
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kIndex, /*stream_id=*/0, /*cycle=*/1, Payload{});
  ASSERT_EQ(frames.size(), 1u);
  const auto decoded = codec.Decode(frames[0]);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->header.last);
  EXPECT_EQ(decoded->payload.bits, 0u);
}

TEST(FrameCodecTest, LongPayloadSegmentsAndReassembles) {
  const FrameCodec codec = SmallCodec(8, 128);  // tiny frames -> many segments
  Rng rng(42);
  Payload payload;
  payload.bytes.resize(200);
  for (auto& b : payload.bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
  payload.bits = 8 * 200;

  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kControlRefresh, /*stream_id=*/0, /*cycle=*/9, payload);
  const uint64_t capacity = codec.payload_capacity_bits();
  EXPECT_EQ(frames.size(), (payload.bits + capacity - 1) / capacity);
  ASSERT_GT(frames.size(), 3u);

  StreamReassembler reassembler;
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto decoded = codec.Decode(frames[i]);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->header.seq, i);
    EXPECT_EQ(decoded->header.last, i + 1 == frames.size());
    reassembler.Add(*decoded);
  }
  ASSERT_TRUE(reassembler.complete());
  const Payload out = reassembler.Take();
  EXPECT_EQ(out.bits, payload.bits);
  EXPECT_EQ(out.bytes, payload.bytes);
}

TEST(FrameCodecTest, NonByteAlignedPayloadRoundTrips) {
  const FrameCodec codec = SmallCodec(8, 128);
  Payload payload;
  payload.bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x07};
  payload.bits = 75;  // not a multiple of 8, spans two 37/38-bit-ish chunks
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kControlDelta, /*stream_id=*/0, /*cycle=*/4, payload);
  StreamReassembler reassembler;
  for (const Frame& f : frames) {
    const auto decoded = codec.Decode(f);
    ASSERT_TRUE(decoded.ok());
    reassembler.Add(*decoded);
  }
  ASSERT_TRUE(reassembler.complete());
  const Payload out = reassembler.Take();
  EXPECT_EQ(out.bits, payload.bits);
  EXPECT_EQ(out.bytes, payload.bytes);
}

// ---------------------------------------------------------------------------
// Damage rejection
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, CrcCatchesEverySingleBitFlip) {
  const FrameCodec codec = SmallCodec(8, 128);
  const std::vector<Frame> frames = codec.EncodeStream(FrameKind::kData, /*stream_id=*/5,
                                                       /*cycle=*/12, BytePayload({1, 2, 3, 4}));
  ASSERT_EQ(frames.size(), 1u);
  for (size_t bit = 0; bit < codec.frame_bits(); ++bit) {
    Frame damaged = frames[0];
    damaged.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(codec.Decode(damaged).ok()) << "flip of bit " << bit << " accepted";
  }
}

TEST(FrameCodecTest, TruncatedFramesAreRejected) {
  const FrameCodec codec = SmallCodec();
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kData, /*stream_id=*/5, /*cycle=*/12, BytePayload({1, 2}));
  ASSERT_EQ(frames.size(), 1u);
  for (size_t len : {0u, 1u, 31u, 63u}) {
    Frame truncated = frames[0];
    truncated.bytes.resize(len);
    EXPECT_FALSE(codec.Decode(truncated).ok()) << "length " << len;
  }
}

// Datagram semantics: UDP delivers frames duplicated and reordered, and a
// truncated final datagram simply drops the tail frames. None of that may
// wedge the receiver — only contradictory streams are broken.
std::vector<DecodedFrame> DecodeAll(const FrameCodec& codec, const std::vector<Frame>& frames) {
  std::vector<DecodedFrame> decoded;
  for (const Frame& f : frames) {
    const auto d = codec.Decode(f);
    EXPECT_TRUE(d.ok());
    decoded.push_back(*d);
  }
  return decoded;
}

TEST(StreamReassemblerTest, ReorderedAndDuplicatedFramesStillReassemble) {
  const FrameCodec codec = SmallCodec(8, 128);  // 32 payload bits per frame
  Payload payload;
  payload.bytes.assign(12, 0xAB);
  payload.bits = 8 * 12;
  const std::vector<DecodedFrame> decoded =
      DecodeAll(codec, codec.EncodeStream(FrameKind::kData, /*stream_id=*/1, /*cycle=*/2, payload));
  ASSERT_EQ(decoded.size(), 3u);

  StreamReassembler r;
  r.Add(decoded[2]);  // last frame arrives first
  r.Add(decoded[0]);
  r.Add(decoded[0]);  // duplicate, ignored
  EXPECT_FALSE(r.complete());
  EXPECT_FALSE(r.broken());
  r.Add(decoded[1]);
  r.Add(decoded[2]);  // duplicate after completion, ignored
  ASSERT_TRUE(r.complete());
  const Payload out = r.Take();
  EXPECT_EQ(out.bits, payload.bits);
  EXPECT_EQ(out.bytes, payload.bytes);
}

TEST(StreamReassemblerTest, GapLeavesStreamIncompleteUntilTheFrameArrives) {
  const FrameCodec codec = SmallCodec(8, 128);
  Payload payload;
  payload.bytes.assign(12, 0x5C);
  payload.bits = 8 * 12;
  const std::vector<DecodedFrame> decoded =
      DecodeAll(codec, codec.EncodeStream(FrameKind::kData, /*stream_id=*/1, /*cycle=*/2, payload));
  ASSERT_EQ(decoded.size(), 3u);

  StreamReassembler r;
  r.Add(decoded[0]);
  r.Add(decoded[2]);
  EXPECT_FALSE(r.complete()) << "frame 1 missing";
  EXPECT_FALSE(r.broken()) << "a gap is loss, not contradiction";
  r.Add(decoded[1]);  // late retransmit-style arrival fills the gap
  EXPECT_TRUE(r.complete());
}

TEST(StreamReassemblerTest, TruncatedTailNeverCompletesButNeverWedges) {
  // A truncated final datagram drops the stream's tail frames: the last flag
  // is never seen, so the stream stays incomplete (stall path), not broken.
  const FrameCodec codec = SmallCodec(8, 128);
  Payload payload;
  payload.bytes.assign(60, 0x33);
  payload.bits = 8 * 60;
  const std::vector<DecodedFrame> decoded =
      DecodeAll(codec, codec.EncodeStream(FrameKind::kData, /*stream_id=*/1, /*cycle=*/2, payload));
  ASSERT_GE(decoded.size(), 3u);

  StreamReassembler r;
  for (size_t i = 0; i + 1 < decoded.size(); ++i) r.Add(decoded[i]);
  EXPECT_FALSE(r.complete());
  EXPECT_FALSE(r.broken());
}

TEST(StreamReassemblerTest, ContradictoryFramesBreakTheStream) {
  const FrameCodec codec = SmallCodec(8, 128);
  Payload three;
  three.bytes.assign(30, 0x11);
  three.bits = 8 * 30;
  Payload four;
  four.bytes.assign(42, 0x22);
  four.bits = 8 * 42;
  const std::vector<DecodedFrame> short_stream =
      DecodeAll(codec, codec.EncodeStream(FrameKind::kData, /*stream_id=*/1, /*cycle=*/2, three));
  const std::vector<DecodedFrame> long_stream =
      DecodeAll(codec, codec.EncodeStream(FrameKind::kData, /*stream_id=*/1, /*cycle=*/2, four));
  ASSERT_LT(short_stream.size(), long_stream.size());

  {  // a frame sequenced past the last-flagged frame
    StreamReassembler r;
    for (const auto& d : short_stream) r.Add(d);
    ASSERT_TRUE(r.complete());
    r.Add(long_stream.back());
    EXPECT_TRUE(r.broken());
    EXPECT_FALSE(r.complete());
  }
  {  // same, with the too-far frame buffered before the last flag arrives
    StreamReassembler r;
    r.Add(long_stream.back());
    r.Add(short_stream.back());
    EXPECT_TRUE(r.broken());
  }
  {  // two different last-flagged sequence numbers
    StreamReassembler r;
    r.Add(short_stream.back());
    r.Add(long_stream.back());
    EXPECT_TRUE(r.broken());
  }
  {  // a duplicate of the same size carrying a different payload
    StreamReassembler r;
    r.Add(short_stream.front());
    r.Add(short_stream.front());  // a true duplicate is ignored
    EXPECT_FALSE(r.broken());
    DecodedFrame forged = short_stream.front();
    forged.payload.bytes[0] ^= 0x01;
    r.Add(forged);
    EXPECT_TRUE(r.broken());
  }
}

// ---------------------------------------------------------------------------
// Cycle payloads
// ---------------------------------------------------------------------------

TEST(CyclePayloadTest, IndexRoundTrip) {
  CycleIndex index;
  index.control_mode = CycleIndex::kControlDelta;
  index.num_objects = 777;
  index.cycle_low = 0xDEADBEEF;
  const Payload payload = EncodeIndexPayload(index);
  const auto out = DecodeIndexPayload(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->control_mode, index.control_mode);
  EXPECT_EQ(out->num_objects, index.num_objects);
  EXPECT_EQ(out->cycle_low, index.cycle_low);

  Payload bad = payload;
  bad.bytes[0] ^= 0xFF;  // magic damaged
  EXPECT_FALSE(DecodeIndexPayload(bad).ok());
  Payload wrong_size = payload;
  wrong_size.bits -= 1;
  EXPECT_FALSE(DecodeIndexPayload(wrong_size).ok());
}

TEST(CyclePayloadTest, ObjectVersionRoundTripsAtAnySimulatedSize) {
  const ObjectVersion version{0x0123456789ABCDEFull, 4242, 0x00000001FFFFFFFEull};
  for (const uint64_t size_bits : {uint64_t{64}, kObjectVersionBits, uint64_t{4096}}) {
    const Payload payload = EncodeObjectPayload(version, size_bits);
    EXPECT_EQ(payload.bits, std::max(kObjectVersionBits, size_bits));
    const auto out = DecodeObjectPayload(payload);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, version);
  }
  EXPECT_FALSE(DecodeObjectPayload(Payload{}).ok());
}

TEST(CyclePayloadTest, FullModeCycleFramesCarryIndexDataAndColumns) {
  const uint32_t n = 5;
  const FrameCodec codec = SmallCodec(8, 512);
  CycleSnapshot snap;
  snap.cycle = 17;
  snap.values = ObjectValues(n);
  for (uint32_t j = 0; j < n; ++j) snap.values.Mutable(j).value = 100 + j;
  FMatrix control(n);
  control.Set(2, 3, 9);
  snap.f_matrix = control.Snapshot();

  const std::vector<Frame> frames = EncodeCycleFrames(snap, codec, /*object_size_bits=*/64);
  size_t index_frames = 0, data_streams = 0, column_streams = 0;
  for (const Frame& f : frames) {
    const auto d = codec.Decode(f);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->header.cycle_residue, codec.stamp_codec().Encode(snap.cycle));
    switch (d->header.kind) {
      case FrameKind::kIndex: {
        ++index_frames;
        const auto index = DecodeIndexPayload(d->payload);
        ASSERT_TRUE(index.ok());
        EXPECT_EQ(index->control_mode, CycleIndex::kControlColumns);
        EXPECT_EQ(index->num_objects, n);
        break;
      }
      case FrameKind::kData: {
        ++data_streams;
        const auto version = DecodeObjectPayload(d->payload);
        ASSERT_TRUE(version.ok());
        EXPECT_EQ(version->value, 100u + d->header.stream_id);
        break;
      }
      case FrameKind::kControlColumn: {
        ++column_streams;
        const auto stamps = UnpackStamps(d->payload.bytes, n, codec.stamp_codec(), snap.cycle);
        ASSERT_TRUE(stamps.ok()) << stamps.status().ToString();
        if (d->header.stream_id == 3) {
          EXPECT_EQ((*stamps)[2], 9u);
        }
        break;
      }
      default:
        FAIL() << "unexpected kind in full mode";
    }
  }
  EXPECT_EQ(index_frames, 1u);
  EXPECT_EQ(data_streams, n);
  EXPECT_EQ(column_streams, n);
}

// ---------------------------------------------------------------------------
// Wire-format portability goldens
// ---------------------------------------------------------------------------
// The on-air byte layout is a protocol contract between independently built
// binaries (bcc_serverd / bcc_client may run on different hosts). These
// constants freeze the exact bytes; a test failure here means the wire
// format changed and deployed peers would stop interoperating — bump the
// protocol deliberately, don't update the constants casually.

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(WireFormatGoldenTest, FrameBytesAreFrozen) {
  // ts=8, 128-bit frames: header = 8+3+20+16+1+16 = 64 bits, CRC 32, payload
  // capacity 32 bits. kind=kData, stream=7, cycle=300 (residue 0x2C), 6-byte
  // payload -> exactly two frames.
  const FrameCodec codec = SmallCodec(8, 128);
  const Payload payload = BytePayload({0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02});
  const std::vector<Frame> frames = codec.EncodeStream(FrameKind::kData, 7, 300, payload);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(ToHex(frames[0].bytes), "2c39000000002000deadbeefff5cbd6f");
  EXPECT_EQ(ToHex(frames[1].bytes), "2c3900800080100001020000a27e6463");

  // The frozen bytes decode back to the original header fields and payload.
  const auto first = codec.Decode(frames[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->header.cycle_residue, 300u & 0xFF);
  EXPECT_EQ(first->header.kind, FrameKind::kData);
  EXPECT_EQ(first->header.stream_id, 7u);
  EXPECT_EQ(first->header.seq, 0u);
  EXPECT_FALSE(first->header.last);
  const auto second = codec.Decode(frames[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->header.seq, 1u);
  EXPECT_TRUE(second->header.last);
}

TEST(WireFormatGoldenTest, PackStampsBytesAreFrozen) {
  // TS-bit residues packed LSB-first: at ts=8 each stamp is one byte of its
  // residue mod 256.
  const std::vector<Cycle> stamps = {0, 1, 255, 256, 511};
  EXPECT_EQ(ToHex(PackStamps(stamps, CycleStampCodec(8))), "0001ff00ff");
}

// The goldens below freeze the unaligned cases: at ts=5 and ts=13 the frame
// header is not a whole number of bytes, so every payload bit straddles a
// byte boundary on the air.

Payload UnalignedPayload() {
  // 71 meaningful bits: three frames at a 35-bit capacity (35 + 35 + 1).
  Payload p;
  p.bytes = {0xA5, 0x3C, 0xF0, 0x0F, 0x96, 0x69, 0x12, 0xEF, 0x55};
  p.bits = 71;
  p.bytes.back() &= 0x7F;  // zero padding past bit 71
  return p;
}

TEST(WireFormatGoldenTest, UnalignedFrameBytesAreFrozenAtTs5) {
  // ts=5, 128-bit frames: header 5+56 = 61 bits, capacity 128-61-32 = 35.
  const FrameCodec codec = SmallCodec(5, 128);
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kControlDelta, 0xABCDE, 1000, UnalignedPayload());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(ToHex(frames[0].bytes), "68debc0a006004a09407fec10b317738");
  EXPECT_EQ(ToHex(frames[1].bytes), "68debc1a00600440a649bc57b33f6647");
  EXPECT_EQ(ToHex(frames[2].bytes), "68debc2a0030002000000000f8f615e2");
}

TEST(WireFormatGoldenTest, UnalignedFrameBytesAreFrozenAtTs13) {
  // ts=13, 136-bit frames: header 13+56 = 69 bits, capacity 136-69-32 = 35.
  const FrameCodec codec = SmallCodec(13, 136);
  const std::vector<Frame> frames =
      codec.EncodeStream(FrameKind::kData, 4242, 123456, UnalignedPayload());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(ToHex(frames[0].bytes), "4022921000006004a09407fec1359417d1");
  EXPECT_EQ(ToHex(frames[1].bytes), "402292101000600440a649bc578d9a06ae");
  EXPECT_EQ(ToHex(frames[2].bytes), "40229210200030002000000000c653750b");

  // The frozen bytes reassemble to the original payload.
  StreamReassembler reassembler;
  for (const Frame& f : frames) {
    const auto decoded = codec.Decode(f);
    ASSERT_TRUE(decoded.ok());
    reassembler.Add(*decoded);
  }
  ASSERT_TRUE(reassembler.complete());
  const Payload out = reassembler.Take();
  EXPECT_EQ(out.bits, 71u);
  EXPECT_EQ(out.bytes, UnalignedPayload().bytes);
}

TEST(WireFormatGoldenTest, UnalignedPackStampsBytesAreFrozenAtTs5) {
  // Five-bit residues straddle byte boundaries: 9 stamps = 45 bits.
  const std::vector<Cycle> stamps = {0, 1, 31, 32, 33, 63, 64, 1000, 12345};
  EXPECT_EQ(ToHex(PackStamps(stamps, CycleStampCodec(5))), "207c103e4019");
}

TEST(WireFormatGoldenTest, UnalignedDeltaBytesAreFrozenAtTs5) {
  // n=10: 4-bit row and column indices plus a 5-bit residue per entry.
  const std::vector<DeltaCodec::Entry> entries = {
      {0, 1, 3}, {9, 2, 31}, {5, 5, 17}, {7, 0, 0}};
  EXPECT_EQ(ToHex(DeltaCodec::Pack(entries, 10, CycleStampCodec(5))), "040000001023e557c50300");
}

}  // namespace
}  // namespace bcc
