// Deterministic mutation fuzz of the receive-side decoders: FrameCodec's
// header/CRC checks, StreamReassembler, DecodeCycleData and
// ChannelReceiver::IngestCycle. Real broadcast cycles are damaged by
// truncation at every length, single-bit flips, oversize length and count
// fields, and kind spoofing (with the CRC re-signed, so the damage gets past
// the checksum). Every case must be rejected or surface as loss — never a
// crash (the ASan/UBSan CI job runs this suite), and never a data page or
// control matrix the server did not broadcast.

#include <gtest/gtest.h>

#include <vector>

#include "channel/frame.h"
#include "client/delta_tracker.h"
#include "client/receiver.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "net/datagram.h"

namespace bcc {
namespace {

constexpr uint32_t kObjects = 6;
constexpr uint64_t kObjectBits = 300;  // several frames per page, not byte-aligned
constexpr Cycle kRefreshCycle = 40;
constexpr Cycle kDeltaCycle = 41;

/// Header field offsets (bits from the frame start) for a TS-bit codec.
uint64_t KindBit(const FrameCodec& c) { return c.stamp_codec().bits(); }
uint64_t SeqBit(const FrameCodec& c) { return KindBit(c) + 3 + 20; }
uint64_t LastBit(const FrameCodec& c) { return SeqBit(c) + 16; }
uint64_t LenBit(const FrameCodec& c) { return LastBit(c) + 1; }

void SetField(Frame& f, uint64_t bit, unsigned bits, uint32_t value) {
  BitWriter w;
  w.Write(value, bits);
  const std::vector<uint8_t> field = std::move(w).Take();
  CopyBits(field, 0, f.bytes, bit, bits);
}

/// Recomputes the CRC trailer so a deliberately damaged header is CRC-valid.
void Resign(Frame& f) {
  const size_t body = f.bytes.size() - 4;
  const uint32_t crc = Crc32(std::span<const uint8_t>(f.bytes.data(), body));
  for (unsigned i = 0; i < 4; ++i) f.bytes[body + i] = static_cast<uint8_t>(crc >> (8 * i));
}

/// The server side of two consecutive delta-mode cycles (a refresh, then a
/// delta on top of it) and of one full-mode cycle.
struct Broadcast {
  explicit Broadcast(const FrameCodec& codec) : codec(codec) {
    FMatrix base(kObjects);
    for (uint32_t i = 0; i < kObjects; ++i) {
      for (uint32_t j = 0; j < kObjects; ++j) base.Set(i, j, kRefreshCycle - 1 - (i * 7 + j) % 9);
    }
    FMatrix next = base;
    const std::vector<DeltaCodec::Entry> entries = {{0, 1, 0}, {4, 1, 0}, {2, 5, 0}};
    for (const DeltaCodec::Entry& e : entries) next.Set(e.row, e.col, kDeltaCycle - 1);

    refresh = Snapshot(kRefreshCycle, base);
    refresh.delta.emplace();
    refresh.delta->cycle = kRefreshCycle;
    refresh.delta->full_refresh = true;

    delta = Snapshot(kDeltaCycle, next);
    delta.delta.emplace();
    delta.delta->cycle = kDeltaCycle;
    delta.delta->base_cycle = kRefreshCycle;
    for (DeltaCodec::Entry e : entries) {
      e.residue = codec.stamp_codec().Encode(kDeltaCycle - 1);
      delta.delta->entries.push_back(e);
    }

    full = Snapshot(kDeltaCycle, next);
    refresh_frames = EncodeCycleFrames(refresh, codec, kObjectBits);
    delta_frames = EncodeCycleFrames(delta, codec, kObjectBits);
    full_frames = EncodeCycleFrames(full, codec, kObjectBits);
  }

  static CycleSnapshot Snapshot(Cycle cycle, const FMatrix& matrix) {
    CycleSnapshot snap;
    snap.cycle = cycle;
    snap.values = ObjectValues(kObjects);
    for (uint32_t j = 0; j < kObjects; ++j) {
      snap.values.Mutable(j).value = 0x0123456789ABCDEFull ^ (cycle * 1000 + j);
      snap.values.Mutable(j).writer = j + 1;
      snap.values.Mutable(j).cycle = cycle - 1;
    }
    snap.f_matrix = matrix.Snapshot();
    return snap;
  }

  FrameCodec codec;
  CycleSnapshot refresh, delta, full;
  std::vector<Frame> refresh_frames, delta_frames, full_frames;
};

Transmission Deliver(const std::vector<Frame>& frames) {
  Transmission tx;
  for (const Frame& f : frames) tx.frames.push_back(Delivery{f, false});
  tx.sent = frames.size();
  return tx;
}

uint64_t Losses(const ChannelStats& s) { return s.data_losses + s.control_losses; }

/// Every data page the receiver calls usable is the one the server sent.
void ExpectNoFalseData(const ChannelReceiver& rx, const CycleSnapshot& snap) {
  for (uint32_t j = 0; j < kObjects; ++j) {
    if (rx.DataUsable(j, snap.cycle)) {
      EXPECT_EQ(rx.values()[j], snap.values[j]) << "object " << j;
    }
  }
}

/// A usable reconstructed matrix agrees with the server's residue for residue.
void ExpectNoFalseControl(const FMatrix& got, const CycleSnapshot& snap,
                          const CycleStampCodec& stamps) {
  for (uint32_t j = 0; j < kObjects; ++j) {
    const std::span<const Cycle> want = snap.f_matrix.Column(j);
    const std::span<const Cycle> have = got.Column(j);
    for (uint32_t i = 0; i < kObjects; ++i) {
      EXPECT_EQ(stamps.Encode(have[i]), stamps.Encode(want[i])) << "entry " << i << "," << j;
    }
  }
}

/// Ingests the clean refresh cycle and then `delta_frames` as the delta
/// cycle into a fresh delta-mode receiver; checks the outcome against the
/// clean baseline.
struct DeltaRun {
  DeltaRun(const Broadcast& b, const std::vector<Frame>& delta_frames)
      : tracker(kObjects, b.codec.stamp_codec()), rx(kObjects, b.codec, &tracker) {
    rx.IngestCycle(kRefreshCycle, Deliver(b.refresh_frames));
    before = rx.stats();
    rx.IngestCycle(kDeltaCycle, Deliver(delta_frames));
    ExpectNoFalseData(rx, b.delta);
    if (!tracker.Unusable(kDeltaCycle)) {
      ExpectNoFalseControl(tracker.matrix(), b.delta, b.codec.stamp_codec());
    }
  }
  /// What this cycle cost: frames rejected plus data/control losses.
  uint64_t Damage() const {
    return rx.stats().frames_rejected - before.frames_rejected + Losses(rx.stats()) -
           Losses(before);
  }

  DeltaMatrixTracker tracker;
  ChannelReceiver rx;
  ChannelStats before;
};

std::vector<FrameCodec> Codecs() {
  // ts=8: byte-aligned header; ts=5: every payload bit straddles bytes.
  return {FrameCodec(CycleStampCodec(8), 192), FrameCodec(CycleStampCodec(5), 160)};
}

TEST(FrameFuzzTest, CleanCyclesDecodeWithoutLoss) {
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    const DeltaRun run(b, b.delta_frames);
    EXPECT_EQ(run.Damage(), 0u);
    EXPECT_FALSE(run.tracker.Unusable(kDeltaCycle));
    for (uint32_t j = 0; j < kObjects; ++j) EXPECT_TRUE(run.rx.DataUsable(j, kDeltaCycle));

    ChannelReceiver full(kObjects, codec, nullptr);
    full.IngestCycle(kDeltaCycle, Deliver(b.full_frames));
    EXPECT_EQ(Losses(full.stats()) + full.stats().frames_rejected, 0u);
    ExpectNoFalseControl(full.matrix(), b.full, codec.stamp_codec());
  }
}

TEST(FrameFuzzTest, TruncationAtEveryLengthIsRejected) {
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    for (size_t f = 0; f < b.delta_frames.size(); ++f) {
      for (size_t len = 0; len <= codec.frame_bytes() + 1; ++len) {
        if (len == codec.frame_bytes()) continue;
        std::vector<Frame> frames = b.delta_frames;
        frames[f].bytes.resize(len);
        EXPECT_FALSE(codec.Decode(frames[f]).ok()) << "frame " << f << " length " << len;
        const DeltaRun run(b, frames);
        EXPECT_GE(run.rx.stats().frames_rejected - run.before.frames_rejected, 1u);
        EXPECT_GE(Losses(run.rx.stats()) - Losses(run.before), 1u)
            << "losing frame " << f << " went unnoticed";
      }
    }
  }
}

TEST(FrameFuzzTest, EverySingleBitFlipIsRejected) {
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    Rng rng(31);
    for (size_t f = 0; f < b.delta_frames.size(); ++f) {
      for (size_t bit = 0; bit < codec.frame_bits(); ++bit) {
        Frame damaged = b.delta_frames[f];
        damaged.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        ASSERT_FALSE(codec.DecodeHeader(damaged.bytes).ok()) << "frame " << f << " bit " << bit;
        // A seeded sample also goes through the whole receive path.
        if (rng.NextBounded(16) != 0) continue;
        std::vector<Frame> frames = b.delta_frames;
        frames[f] = damaged;
        const DeltaRun run(b, frames);
        EXPECT_GE(run.rx.stats().frames_rejected - run.before.frames_rejected, 1u);
      }
    }
  }
}

TEST(FrameFuzzTest, OversizePayloadLengthIsRejected) {
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    const uint64_t capacity = codec.payload_capacity_bits();
    for (uint32_t len : {static_cast<uint32_t>(capacity + 1), static_cast<uint32_t>(capacity + 8),
                         0x8000u, 0xFFFFu}) {
      for (size_t f = 0; f < b.delta_frames.size(); ++f) {
        std::vector<Frame> frames = b.delta_frames;
        SetField(frames[f], LenBit(codec), 16, len);
        Resign(frames[f]);
        const auto decoded = codec.Decode(frames[f]);
        ASSERT_FALSE(decoded.ok()) << "payload length " << len << " accepted";
        const DeltaRun run(b, frames);
        EXPECT_EQ(run.rx.stats().frames_rejected - run.before.frames_rejected, 1u);
        EXPECT_GE(run.Damage(), 2u) << "the stream missing frame " << f << " was not lost";
      }
    }
  }
}

TEST(FrameFuzzTest, ShortenedPayloadLengthIsRejectedOrLost) {
  // A CRC-valid frame that claims fewer payload bits than were sent: a
  // non-final frame is no longer full (rejected), and a final frame leaves
  // its stream short, which the index and control decoders refuse. A data
  // page only loses zero padding past its 160 meaningful bits, which is
  // harmless (DeltaRun checks every usable page against the server's).
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    for (size_t f = 0; f < b.delta_frames.size(); ++f) {
      const auto original = codec.Decode(b.delta_frames[f]);
      ASSERT_TRUE(original.ok());
      if (original->header.payload_bits == 0) continue;
      std::vector<Frame> frames = b.delta_frames;
      SetField(frames[f], LenBit(codec), 16, original->header.payload_bits - 1);
      Resign(frames[f]);
      EXPECT_EQ(codec.Decode(frames[f]).ok(), original->header.last);
      const DeltaRun run(b, frames);
      if (original->header.kind != FrameKind::kData || !original->header.last) {
        EXPECT_GE(run.Damage(), 1u) << "frame " << f;
      }
    }
  }
}

TEST(FrameFuzzTest, SpoofedKindsAreRejectedOrLost) {
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    for (size_t f = 0; f < b.delta_frames.size(); ++f) {
      const auto original = codec.Decode(b.delta_frames[f]);
      ASSERT_TRUE(original.ok());
      for (uint32_t kind = 0; kind < 8; ++kind) {
        if (kind == static_cast<uint32_t>(original->header.kind)) continue;
        std::vector<Frame> frames = b.delta_frames;
        SetField(frames[f], KindBit(codec), 3, kind);
        Resign(frames[f]);
        EXPECT_EQ(codec.Decode(frames[f]).ok(), kind <= kMaxFrameKind);
        const DeltaRun run(b, frames);
        EXPECT_GE(run.Damage(), 1u) << "frame " << f << " spoofed as kind " << kind;
      }
    }
    // Full mode: columns spoofed as data pages and the reverse.
    for (size_t f = 0; f < b.full_frames.size(); ++f) {
      for (uint32_t kind : {static_cast<uint32_t>(FrameKind::kData),
                            static_cast<uint32_t>(FrameKind::kControlColumn)}) {
        std::vector<Frame> frames = b.full_frames;
        SetField(frames[f], KindBit(codec), 3, kind);
        if (frames[f].bytes == b.full_frames[f].bytes) continue;
        Resign(frames[f]);
        ChannelReceiver rx(kObjects, codec, nullptr);
        rx.IngestCycle(kDeltaCycle, Deliver(frames));
        EXPECT_GE(Losses(rx.stats()), 1u) << "frame " << f << " spoofed as kind " << kind;
        ExpectNoFalseData(rx, b.full);
        for (uint32_t j = 0; j < kObjects; ++j) {
          if (!rx.ControlUsable(j, kDeltaCycle)) continue;
          const std::span<const Cycle> want = b.full.f_matrix.Column(j);
          for (uint32_t i = 0; i < kObjects; ++i) {
            EXPECT_EQ(codec.stamp_codec().Encode(rx.matrix().At(i, j)),
                      codec.stamp_codec().Encode(want[i]));
          }
        }
      }
    }
  }
}

TEST(FrameFuzzTest, ContradictorySequencingBreaksTheStream) {
  // Re-signed sequence numbers and last flags: frames past the last one,
  // a second last frame, and duplicate sequence numbers.
  for (const FrameCodec& codec : Codecs()) {
    const Broadcast b(codec);
    for (size_t f = 0; f < b.delta_frames.size(); ++f) {
      for (uint32_t seq : {0u, 1u, 2u, 7u, 0xFFFFu}) {
        for (uint32_t last : {0u, 1u}) {
          std::vector<Frame> frames = b.delta_frames;
          SetField(frames[f], SeqBit(codec), 16, seq);
          SetField(frames[f], LastBit(codec), 1, last);
          if (frames[f].bytes == b.delta_frames[f].bytes) continue;
          Resign(frames[f]);
          const DeltaRun run(b, frames);
          EXPECT_GE(run.Damage(), 1u) << "frame " << f << " as seq " << seq << " last " << last;
        }
      }
    }
  }
}

TEST(FrameFuzzTest, ReassemblerSurvivesRandomFrameSequences) {
  const FrameCodec codec(CycleStampCodec(5), 160);
  const uint32_t capacity = static_cast<uint32_t>(codec.payload_capacity_bits());
  Rng rng(77);
  StreamReassembler r;
  for (int trial = 0; trial < 2000; ++trial) {
    r.Clear();
    const int count = 1 + static_cast<int>(rng.NextBounded(12));
    for (int k = 0; k < count; ++k) {
      DecodedFrame d;
      d.header.seq = rng.NextBounded(4) == 0 ? static_cast<uint32_t>(rng.NextBounded(0x10000))
                                              : static_cast<uint32_t>(rng.NextBounded(6));
      d.header.last = rng.NextBounded(3) == 0;
      d.header.payload_bits = static_cast<uint32_t>(rng.NextBounded(capacity + 1));
      d.payload.bits = d.header.payload_bits;
      d.payload.bytes.resize((d.payload.bits + 7) / 8);
      for (uint8_t& byte : d.payload.bytes) byte = static_cast<uint8_t>(rng.NextBounded(256));
      r.Add(d);
    }
    if (r.complete()) {
      EXPECT_FALSE(r.broken());
      const Payload& out = r.Take();
      EXPECT_EQ(out.bytes.size(), (out.bits + 7) / 8);
      if (out.bits % 8 != 0) {
        EXPECT_EQ(out.bytes.back() >> (out.bits % 8), 0) << "dirty padding";
      }
    }
  }
}

// CYCLE_DATA envelope offsets (net/datagram.h): magic u16, kind u8, cycle
// u64, dgram_seq u16, dgram_count u16, frame_count u16, cycle_frames u16,
// frame_bytes u16, then the frames.
constexpr size_t kFrameCountAt = 15;
constexpr size_t kFrameBytesAt = 19;
constexpr size_t kCycleDataHeaderBytes = 21;

TEST(FrameFuzzTest, CycleDataDatagramMutations) {
  const FrameCodec codec(CycleStampCodec(8), 192);
  const Broadcast b(codec);
  // Small datagrams: several per cycle, a few frames each.
  const std::vector<std::vector<uint8_t>> dgrams =
      PackCycleDatagrams(kDeltaCycle, b.delta_frames, 100);
  ASSERT_GT(dgrams.size(), 2u);

  // Decodes every datagram (one of them mutated) and ingests whatever
  // frames survive.
  const auto ingest = [&](size_t target, const std::vector<uint8_t>& mutated) {
    std::vector<Frame> frames;
    for (size_t i = 0; i < dgrams.size(); ++i) {
      const StatusOr<CycleDataMsg> msg = DecodeCycleData(i == target ? mutated : dgrams[i]);
      if (!msg.ok()) continue;
      EXPECT_LE(msg->frames.size(), msg->header.frame_count);
      for (const Frame& f : msg->frames) {
        EXPECT_EQ(f.bytes.size(), msg->header.frame_bytes);
        frames.push_back(f);
      }
    }
    const DeltaRun run(b, frames);
    return run.Damage();
  };

  EXPECT_EQ(ingest(dgrams.size(), {}), 0u) << "clean datagrams";
  for (size_t d = 0; d < dgrams.size(); ++d) {
    // Truncation at every length loses at least the frame it cuts.
    for (size_t len = 0; len < dgrams[d].size(); ++len) {
      const std::vector<uint8_t> cut(dgrams[d].begin(),
                                     dgrams[d].begin() + static_cast<ptrdiff_t>(len));
      EXPECT_GE(ingest(d, cut), 1u) << "datagram " << d << " cut to " << len;
    }
    // Every single-bit flip: rejected or lost, never falsely accepted (the
    // envelope's sequencing fields are not read by the frame path, so a
    // flip there may cost nothing).
    for (size_t bit = 0; bit < dgrams[d].size() * 8; ++bit) {
      std::vector<uint8_t> flipped = dgrams[d];
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const uint64_t damage = ingest(d, flipped);
      if (bit >= 8 * kCycleDataHeaderBytes) {
        EXPECT_GE(damage, 1u) << "datagram " << d << " bit " << bit;
      }
    }
    // Oversize frame_count: only the frames actually present decode.
    std::vector<uint8_t> oversize = dgrams[d];
    oversize[kFrameCountAt] = 0xFF;
    oversize[kFrameCountAt + 1] = 0xFF;
    const StatusOr<CycleDataMsg> msg = DecodeCycleData(oversize);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->header.frame_count, 0xFFFFu);
    EXPECT_EQ(msg->frames.size(), (dgrams[d].size() - kCycleDataHeaderBytes) / codec.frame_bytes());
    EXPECT_EQ(ingest(d, oversize), 0u);
    // A wrong frame size slices the frames wrongly: each is rejected.
    for (uint16_t frame_bytes : {uint16_t{0}, uint16_t{1}, uint16_t{23}, uint16_t{25},
                                 uint16_t{0xFFFF}}) {
      std::vector<uint8_t> resized = dgrams[d];
      resized[kFrameBytesAt] = static_cast<uint8_t>(frame_bytes);
      resized[kFrameBytesAt + 1] = static_cast<uint8_t>(frame_bytes >> 8);
      EXPECT_GE(ingest(d, resized), 1u) << "frame_bytes " << frame_bytes;
    }
  }
}

}  // namespace
}  // namespace bcc
