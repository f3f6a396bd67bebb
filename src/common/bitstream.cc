#include "common/bitstream.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace bcc {

namespace {

constexpr uint64_t LowMask(unsigned bits) { return bits >= 64 ? ~0ull : (1ull << bits) - 1; }

/// Loads `n` (0..8) bytes at `p` as a little-endian word.
uint64_t LoadLE(const uint8_t* p, size_t n) {
  uint64_t w = 0;
  if (n == 8) {
    std::memcpy(&w, p, 8);
  } else if (n > 0) {
    std::memcpy(&w, p, n);
  }
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

/// Stores the low `n` (1..8) bytes of `w` at `p`, little-endian.
void StoreLE(uint8_t* p, uint64_t w, size_t n) {
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  std::memcpy(p, &w, n);
}

/// Overwrites `bits` (1..57) bits of `dst` at bit `bit` with `value`, whose
/// higher bits are zero.
void StoreBits(std::span<uint8_t> dst, uint64_t bit, uint64_t value, unsigned bits) {
  const unsigned shift = static_cast<unsigned>(bit % 8);
  const size_t n = (shift + bits + 7) / 8;
  uint8_t* p = dst.data() + bit / 8;
  const uint64_t mask = LowMask(bits) << shift;
  StoreLE(p, (LoadLE(p, n) & ~mask) | (value << shift), n);
}

}  // namespace

uint64_t LoadBits(std::span<const uint8_t> src, uint64_t bit, unsigned bits) {
  assert(bits <= 57 && bit + bits <= src.size() * 8);
  if (bits == 0) return 0;
  const size_t byte = static_cast<size_t>(bit / 8);
  const size_t avail = src.size() - byte;
  return (LoadLE(src.data() + byte, avail < 8 ? avail : 8) >> (bit % 8)) & LowMask(bits);
}

void CopyBits(std::span<const uint8_t> src, uint64_t src_bit, std::span<uint8_t> dst,
              uint64_t dst_bit, uint64_t nbits) {
  assert(src_bit + nbits <= src.size() * 8 && dst_bit + nbits <= dst.size() * 8);
  if (src_bit % 8 == 0 && dst_bit % 8 == 0) {
    const size_t whole = static_cast<size_t>(nbits / 8);
    if (whole > 0) std::memcpy(dst.data() + dst_bit / 8, src.data() + src_bit / 8, whole);
    src_bit += 8 * whole;
    dst_bit += 8 * whole;
    nbits %= 8;
  }
  while (nbits > 0) {
    const unsigned chunk = static_cast<unsigned>(std::min<uint64_t>(nbits, 56));
    StoreBits(dst, dst_bit, LoadBits(src, src_bit, chunk), chunk);
    src_bit += chunk;
    dst_bit += chunk;
    nbits -= chunk;
  }
}

BitWriter::BitWriter(std::vector<uint8_t> storage) : bytes_(std::move(storage)) {
  bytes_.clear();
}

void BitWriter::Put(uint64_t value, unsigned bits) {
  acc_ |= value << acc_bits_;
  const unsigned total = acc_bits_ + bits;
  if (total < 64) {
    acc_bits_ = total;
    return;
  }
  const size_t n = bytes_.size();
  bytes_.resize(n + 8);
  StoreLE(bytes_.data() + n, acc_, 8);
  // The bits of `value` that did not fit start the next word.
  acc_ = acc_bits_ == 0 ? 0 : value >> (64 - acc_bits_);
  acc_bits_ = total - 64;
}

void BitWriter::FlushWholeBytes() {
  const unsigned whole = acc_bits_ / 8;
  if (whole == 0) return;
  const size_t n = bytes_.size();
  bytes_.resize(n + whole);
  StoreLE(bytes_.data() + n, acc_, whole);
  acc_ >>= 8 * whole;  // whole <= 7: acc_bits_ < 64
  acc_bits_ -= 8 * whole;
}

void BitWriter::Write(uint32_t value, unsigned bits) {
  assert(bits >= 1 && bits <= 32);
  Put(value & LowMask(bits), bits);
}

void BitWriter::WriteZeros(uint64_t bits) {
  // Top up to a byte boundary, then append whole zero bytes at once.
  const unsigned head = static_cast<unsigned>(std::min<uint64_t>(bits, (8 - acc_bits_ % 8) % 8));
  Put(0, head);
  bits -= head;
  if (bits >= 8) {
    FlushWholeBytes();
    bytes_.resize(bytes_.size() + bits / 8);
    bits %= 8;
  }
  Put(0, static_cast<unsigned>(bits));
}

void BitWriter::WriteBits(std::span<const uint8_t> src, uint64_t src_bit, uint64_t nbits) {
  assert(src_bit + nbits <= src.size() * 8);
  if (acc_bits_ % 8 == 0 && src_bit % 8 == 0 && nbits >= 8) {
    FlushWholeBytes();
    const auto first = src.begin() + static_cast<ptrdiff_t>(src_bit / 8);
    bytes_.insert(bytes_.end(), first, first + static_cast<ptrdiff_t>(nbits / 8));
    src_bit += nbits - nbits % 8;
    nbits %= 8;
  }
  while (nbits > 0) {
    const unsigned chunk = static_cast<unsigned>(std::min<uint64_t>(nbits, 56));
    Put(LoadBits(src, src_bit, chunk), chunk);
    src_bit += chunk;
    nbits -= chunk;
  }
}

std::vector<uint8_t> BitWriter::Take() && {
  const unsigned tail = (acc_bits_ + 7) / 8;
  if (tail > 0) {
    const size_t n = bytes_.size();
    bytes_.resize(n + tail);
    StoreLE(bytes_.data() + n, acc_, tail);
  }
  acc_ = 0;
  acc_bits_ = 0;
  return std::move(bytes_);
}

Status BitReader::Read(unsigned bits, uint32_t* value) {
  assert(bits >= 1 && bits <= 32);
  if (bits > bits_remaining()) {
    return Status::OutOfRange("bit buffer exhausted");
  }
  *value = static_cast<uint32_t>(LoadBits(bytes_, cursor_, bits));
  cursor_ += bits;
  return Status::OK();
}

}  // namespace bcc
