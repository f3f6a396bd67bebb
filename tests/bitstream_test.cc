#include "common/bitstream.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matrix/wire.h"

namespace bcc {
namespace {

TEST(BitstreamTest, RoundTripMixedWidths) {
  BitWriter w;
  w.Write(0b101, 3);
  w.Write(0xdead, 16);
  w.Write(1, 1);
  w.Write(0x12345678, 32);
  EXPECT_EQ(w.bit_size(), 52u);
  const std::vector<uint8_t> bytes = std::move(w).Take();
  EXPECT_EQ(bytes.size(), 7u);  // ceil(52 / 8)

  BitReader r(bytes);
  uint32_t v = 0;
  ASSERT_TRUE(r.Read(3, &v).ok());
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.Read(16, &v).ok());
  EXPECT_EQ(v, 0xdeadu);
  ASSERT_TRUE(r.Read(1, &v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(r.Read(32, &v).ok());
  EXPECT_EQ(v, 0x12345678u);
}

TEST(BitstreamTest, WriteMasksHighBits) {
  BitWriter w;
  w.Write(0xff, 3);  // only low 3 bits kept
  const std::vector<uint8_t> bytes = std::move(w).Take();
  BitReader r(bytes);
  uint32_t v = 0;
  ASSERT_TRUE(r.Read(3, &v).ok());
  EXPECT_EQ(v, 0b111u);
}

TEST(BitstreamTest, ReadPastEndFails) {
  BitWriter w;
  w.Write(5, 4);
  const std::vector<uint8_t> bytes = std::move(w).Take();
  BitReader r(bytes);
  uint32_t v = 0;
  ASSERT_TRUE(r.Read(4, &v).ok());
  // 4 padding bits remain in the byte; asking for more than that fails.
  EXPECT_EQ(r.bits_remaining(), 4u);
  EXPECT_TRUE(r.Read(5, &v).IsOutOfRange());
}

TEST(BitstreamTest, RandomRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    BitWriter w;
    std::vector<std::pair<uint32_t, unsigned>> items;
    for (int i = 0; i < 50; ++i) {
      const unsigned bits = 1 + static_cast<unsigned>(rng.NextBounded(32));
      const uint32_t value =
          static_cast<uint32_t>(rng.NextU64()) & (bits == 32 ? ~0u : ((1u << bits) - 1));
      items.emplace_back(value, bits);
      w.Write(value, bits);
    }
    const std::vector<uint8_t> bytes = std::move(w).Take();
    BitReader r(bytes);
    for (const auto& [value, bits] : items) {
      uint32_t v = 0;
      ASSERT_TRUE(r.Read(bits, &v).ok());
      EXPECT_EQ(v, value);
    }
  }
}

// ---------------------------------------------------------------------------
// Equivalence with a bit-at-a-time reference. The word-wide writer, reader
// and CopyBits must produce exactly the bytes of the straightforward
// one-bit-per-iteration packing, at every bit alignment.
// ---------------------------------------------------------------------------

/// The reference packer: one bit per loop iteration, LSB-first.
struct RefWriter {
  std::vector<uint8_t> bytes;
  uint64_t bit_size = 0;

  void Write(uint64_t value, uint64_t bits) {
    for (uint64_t b = 0; b < bits; ++b) {
      if (bit_size % 8 == 0) bytes.push_back(0);
      if (b < 64 && ((value >> b) & 1) != 0) {
        bytes.back() |= static_cast<uint8_t>(1u << (bit_size % 8));
      }
      ++bit_size;
    }
  }
};

bool RefBit(const std::vector<uint8_t>& bytes, uint64_t bit) {
  return ((bytes[bit / 8] >> (bit % 8)) & 1) != 0;
}

uint32_t RefRead(const std::vector<uint8_t>& bytes, uint64_t bit, unsigned bits) {
  uint32_t out = 0;
  for (unsigned b = 0; b < bits; ++b) {
    if (RefBit(bytes, bit + b)) out |= 1u << b;
  }
  return out;
}

void RefCopyBits(const std::vector<uint8_t>& src, uint64_t src_bit, std::vector<uint8_t>& dst,
                 uint64_t dst_bit, uint64_t nbits) {
  for (uint64_t b = 0; b < nbits; ++b) {
    const uint64_t d = dst_bit + b;
    const uint8_t mask = static_cast<uint8_t>(1u << (d % 8));
    dst[d / 8] = RefBit(src, src_bit + b) ? (dst[d / 8] | mask) : (dst[d / 8] & ~mask);
  }
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextBounded(256));
  return out;
}

uint32_t RandomValue(Rng& rng, unsigned bits) {
  // Unmasked on purpose: Write must drop the bits above `bits`.
  (void)bits;
  return static_cast<uint32_t>(rng.NextU64());
}

TEST(BitstreamEquivalenceTest, WriterMatchesReferenceAtEveryStartOffset) {
  Rng rng(2024);
  const std::vector<uint8_t> source = RandomBytes(rng, 64);
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (int trial = 0; trial < 20; ++trial) {
      BitWriter w;
      RefWriter ref;
      if (offset > 0) {
        const uint32_t v = RandomValue(rng, offset);
        w.Write(v, offset);
        ref.Write(v & ((1u << offset) - 1), offset);
      }
      for (int i = 0; i < 60; ++i) {
        switch (rng.NextBounded(4)) {
          case 0:
          case 1: {
            const unsigned bits = 1 + static_cast<unsigned>(rng.NextBounded(32));
            const uint32_t v = RandomValue(rng, bits);
            w.Write(v, bits);
            ref.Write(bits == 32 ? v : v & ((1u << bits) - 1), bits);
            break;
          }
          case 2: {
            const uint64_t bits = rng.NextBounded(80);
            w.WriteZeros(bits);
            ref.Write(0, bits);
            break;
          }
          default: {
            const uint64_t src_bit = rng.NextBounded(source.size() * 8 / 2);
            const uint64_t nbits = rng.NextBounded(source.size() * 8 / 2);
            w.WriteBits(source, src_bit, nbits);
            for (uint64_t b = 0; b < nbits; ++b) ref.Write(RefBit(source, src_bit + b), 1);
            break;
          }
        }
        ASSERT_EQ(w.bit_size(), ref.bit_size);
      }
      EXPECT_EQ(std::move(w).Take(), ref.bytes) << "start offset " << offset;
    }
  }
}

TEST(BitstreamEquivalenceTest, WriterRecyclesStorage) {
  BitWriter first;
  first.Write(0xABCDE, 20);
  std::vector<uint8_t> storage = std::move(first).Take();
  storage.reserve(64);
  const uint8_t* data = storage.data();
  BitWriter second(std::move(storage));
  EXPECT_EQ(second.bit_size(), 0u);
  second.Write(0x5, 3);
  const std::vector<uint8_t> out = std::move(second).Take();
  EXPECT_EQ(out, std::vector<uint8_t>({0x05}));
  EXPECT_EQ(out.data(), data) << "recycled storage was reallocated";
}

TEST(BitstreamEquivalenceTest, ReaderMatchesReferenceAtEveryStartOffset) {
  Rng rng(77);
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<uint8_t> bytes = RandomBytes(rng, 1 + rng.NextBounded(40));
      BitReader r(bytes);
      uint64_t cursor = 0;
      uint32_t v = 0;
      if (offset > 0) {
        if (offset > bytes.size() * 8) continue;
        ASSERT_TRUE(r.Read(offset, &v).ok());
        EXPECT_EQ(v, RefRead(bytes, 0, offset));
        cursor = offset;
      }
      while (true) {
        const unsigned bits = 1 + static_cast<unsigned>(rng.NextBounded(32));
        if (bits > r.bits_remaining()) {
          EXPECT_TRUE(r.Read(bits, &v).IsOutOfRange());
          break;
        }
        ASSERT_TRUE(r.Read(bits, &v).ok());
        ASSERT_EQ(v, RefRead(bytes, cursor, bits)) << "offset " << offset << " at bit " << cursor;
        cursor += bits;
        ASSERT_EQ(r.bits_remaining(), bytes.size() * 8 - cursor);
      }
    }
  }
}

TEST(BitstreamEquivalenceTest, ReadPastEndFailsAtEveryOffset) {
  Rng rng(5);
  for (size_t size = 1; size <= 9; ++size) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, size);
    for (unsigned offset = 0; offset < 8; ++offset) {
      // Skip to the offset, then to within 1..32 bits of the end.
      BitReader r(bytes);
      uint32_t v = 0;
      if (offset > 0) {
        ASSERT_TRUE(r.Read(offset, &v).ok());
      }
      while (r.bits_remaining() > 32) {
        ASSERT_TRUE(r.Read(32, &v).ok());
      }
      const size_t remaining = r.bits_remaining();
      ASSERT_GT(remaining, 0u);
      const uint64_t cursor = bytes.size() * 8 - remaining;
      if (remaining < 32) {
        EXPECT_TRUE(r.Read(static_cast<unsigned>(remaining) + 1, &v).IsOutOfRange())
            << "size " << size << " offset " << offset;
        EXPECT_EQ(r.bits_remaining(), remaining) << "a failed read moved the cursor";
      }
      ASSERT_TRUE(r.Read(static_cast<unsigned>(remaining), &v).ok());
      EXPECT_EQ(v, RefRead(bytes, cursor, static_cast<unsigned>(remaining)));
      EXPECT_TRUE(r.Read(1, &v).IsOutOfRange());
    }
  }
}

TEST(BitstreamEquivalenceTest, CopyBitsMatchesReferenceAtEveryAlignment) {
  Rng rng(9);
  for (unsigned src_off = 0; src_off < 8; ++src_off) {
    for (unsigned dst_off = 0; dst_off < 8; ++dst_off) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<uint8_t> src = RandomBytes(rng, 48);
        std::vector<uint8_t> dst = RandomBytes(rng, 48);
        std::vector<uint8_t> ref = dst;
        const uint64_t src_bit = 8 * rng.NextBounded(8) + src_off;
        const uint64_t dst_bit = 8 * rng.NextBounded(8) + dst_off;
        const uint64_t nbits = rng.NextBounded(48 * 8 - 8 * 8 - 8);
        CopyBits(src, src_bit, dst, dst_bit, nbits);
        RefCopyBits(src, src_bit, ref, dst_bit, nbits);
        ASSERT_EQ(dst, ref) << "src_bit " << src_bit << " dst_bit " << dst_bit << " nbits "
                            << nbits;
      }
    }
  }
}

TEST(BitstreamEquivalenceTest, CopyBitsStaysInsideTightBuffers) {
  // Copies that end exactly at the last byte of either buffer: the word
  // loads and stores must not touch a byte past the end (ASan checks).
  Rng rng(11);
  for (uint64_t nbits = 1; nbits <= 130; ++nbits) {
    for (unsigned off = 0; off < 8; ++off) {
      const std::vector<uint8_t> src = RandomBytes(rng, (off + nbits + 7) / 8);
      std::vector<uint8_t> dst = RandomBytes(rng, (off + nbits + 7) / 8);
      std::vector<uint8_t> ref = dst;
      CopyBits(src, off, dst, off, nbits);
      RefCopyBits(src, off, ref, off, nbits);
      ASSERT_EQ(dst, ref);
      std::vector<uint8_t> shifted = RandomBytes(rng, (nbits + 7) / 8);
      ref = shifted;
      CopyBits(src, off, shifted, 0, nbits);
      RefCopyBits(src, off, ref, 0, nbits);
      ASSERT_EQ(shifted, ref);
    }
  }
}

TEST(PackStampsTest, ExactWireSizeMatchesPaperFormula) {
  // A 300-entry column of 8-bit stamps is exactly 2400 bits = 300 bytes.
  const CycleStampCodec codec(8);
  std::vector<Cycle> column(300, 7);
  const auto bytes = PackStamps(column, codec);
  EXPECT_EQ(bytes.size(), 300u);

  // Odd widths pack without alignment: 300 entries x 5 bits = 1500 bits.
  const CycleStampCodec codec5(5);
  EXPECT_EQ(PackStamps(column, codec5).size(), (300u * 5 + 7) / 8);
}

TEST(PackStampsTest, RoundTripThroughTheAir) {
  const CycleStampCodec codec(8);
  Rng rng(17);
  const Cycle current = 1000;
  std::vector<Cycle> column;
  for (int i = 0; i < 64; ++i) column.push_back(current - rng.NextBounded(200));
  const auto bytes = PackStamps(column, codec);
  auto decoded = UnpackStamps(bytes, column.size(), codec, current);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, column);
}

TEST(PackStampsTest, UnpackDetectsTruncation) {
  const CycleStampCodec codec(8);
  std::vector<Cycle> column(10, 1);
  auto bytes = PackStamps(column, codec);
  bytes.resize(5);
  EXPECT_TRUE(UnpackStamps(bytes, 10, codec, 100).status().IsOutOfRange());
}

}  // namespace
}  // namespace bcc
