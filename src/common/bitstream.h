// Bit-granular serialization for broadcast control information. Timestamp
// residues are TS bits wide (Table 1: 8, but any 1..32), so columns are
// packed without byte alignment — the wire sizes the paper's overhead
// formulas count are exact.
//
// Bits are packed LSB-first within each byte. The writer collects bits in a
// 64-bit accumulator and spills it a word at a time; the reader and
// CopyBits load 64-bit little-endian windows and shift, with a plain
// memcpy whenever both sides of a copy are byte-aligned. The byte output is
// identical to packing one bit at a time (tests/bitstream_test.cc keeps that
// reference as the oracle).

#ifndef BCC_COMMON_BITSTREAM_H_
#define BCC_COMMON_BITSTREAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace bcc {

/// Copies `nbits` bits of `src` starting at bit `src_bit` over the bits of
/// `dst` starting at bit `dst_bit`. Destination bits outside the copied range
/// keep their values. Both ranges must lie inside their buffers and must not
/// overlap.
void CopyBits(std::span<const uint8_t> src, uint64_t src_bit, std::span<uint8_t> dst,
              uint64_t dst_bit, uint64_t nbits);

/// Reads `bits` (0..57) bits of `src` starting at bit `bit`; the range must
/// lie inside the buffer.
uint64_t LoadBits(std::span<const uint8_t> src, uint64_t bit, unsigned bits);

/// Append-only bit buffer (LSB-first within each byte).
class BitWriter {
 public:
  BitWriter() = default;
  /// Starts from `storage` cleared, reusing its capacity (pair with Take to
  /// recycle one buffer across many writes without reallocating).
  explicit BitWriter(std::vector<uint8_t> storage);

  /// Appends the low `bits` bits of `value` (1..32).
  void Write(uint32_t value, unsigned bits);

  /// Appends `bits` zero bits.
  void WriteZeros(uint64_t bits);

  /// Appends `nbits` bits of `src` starting at bit `src_bit`.
  void WriteBits(std::span<const uint8_t> src, uint64_t src_bit, uint64_t nbits);

  /// Total bits written so far.
  uint64_t bit_size() const { return bytes_.size() * 8 + acc_bits_; }

  /// The packed bytes, final partial byte zero-padded.
  std::vector<uint8_t> Take() &&;

 private:
  /// Appends the low `bits` (0..64) bits of `value`, whose higher bits are 0.
  void Put(uint64_t value, unsigned bits);
  /// Moves the accumulator's whole bytes into `bytes_`.
  void FlushWholeBytes();

  std::vector<uint8_t> bytes_;  // spilled bytes
  uint64_t acc_ = 0;            // pending bits, LSB first
  unsigned acc_bits_ = 0;       // < 64
};

/// Sequential reader over a packed bit buffer.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `bits` (1..32) bits; OutOfRange past the end.
  Status Read(unsigned bits, uint32_t* value);

  size_t bits_remaining() const { return bytes_.size() * 8 - cursor_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t cursor_ = 0;
};

}  // namespace bcc

#endif  // BCC_COMMON_BITSTREAM_H_
