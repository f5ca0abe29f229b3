#pragma once
// Bit-level I/O for the Huffman coder. Bits are packed LSB-first within
// each byte (deflate convention). Both directions keep a 64-bit
// accumulator so the hot paths move whole words, not single bits.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace medsen::compress {

/// Writes bits LSB-first into a growing byte vector.
class BitWriter {
 public:
  /// Reserve room for about `bytes` of output.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  /// Append the low `count` bits of `bits` (count <= 32).
  void put(std::uint32_t bits, unsigned count) {
    if (count > 32) throw std::invalid_argument("BitWriter: count > 32");
    acc_ |= (std::uint64_t{bits} & ((std::uint64_t{1} << count) - 1))
            << acc_bits_;
    acc_bits_ += count;
    if (acc_bits_ >= 32) {
      for (int i = 0; i < 4; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(acc_));
        acc_ >>= 8;
      }
      acc_bits_ -= 32;
    }
  }

  /// Pad to a byte boundary with zero bits and return the buffer.
  std::vector<std::uint8_t> finish();
  [[nodiscard]] std::size_t bit_count() const {
    return buf_.size() * 8 + acc_bits_;
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;  ///< < 32 between calls
};

/// Reads bits LSB-first from a byte span through a 64-bit refill buffer.
/// Bits past the end of the span read as zero through peek(); consuming
/// them (skip()/get()) throws std::out_of_range.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Top the buffer up to at least 56 bits, or to every remaining bit
  /// near the end of the stream.
  void refill() {
    if (next_ + 8 <= data_.size()) {
      buf_ |= load_le64(data_.data() + next_) << buffered_;
      next_ += (63 - buffered_) >> 3;
      buffered_ |= 56;
      return;
    }
    while (buffered_ <= 56 && next_ < data_.size()) {
      buf_ |= std::uint64_t{data_[next_++]} << buffered_;
      buffered_ += 8;
    }
  }

  /// Bits loaded by the last refill() and not yet consumed. Below 56 only
  /// when that is everything left in the stream.
  [[nodiscard]] unsigned buffered() const { return buffered_; }

  /// The next `count` bits (count <= 32) without consuming them; call
  /// refill() first.
  [[nodiscard]] std::uint32_t peek(unsigned count) const {
    return static_cast<std::uint32_t>(buf_ &
                                      ((std::uint64_t{1} << count) - 1));
  }

  /// Consume `count` buffered bits; throws std::out_of_range if fewer
  /// are buffered (after refill(): if the stream ends first).
  void skip(unsigned count) {
    if (count > buffered_)
      throw std::out_of_range("BitReader: past end of stream");
    buf_ >>= count;
    buffered_ -= count;
  }

  /// Read `count` bits (count <= 32).
  std::uint32_t get(unsigned count) {
    if (count > 32) throw std::invalid_argument("BitReader: count > 32");
    refill();
    const std::uint32_t out = peek(count);
    skip(count);
    return out;
  }

  [[nodiscard]] std::size_t bits_consumed() const {
    return next_ * 8 - buffered_;
  }

 private:
  static std::uint64_t load_le64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t next_ = 0;   ///< first byte not yet loaded into buf_
  std::uint64_t buf_ = 0;  ///< unconsumed bits, LSB = next bit
  unsigned buffered_ = 0;  ///< valid bits in buf_
};

}  // namespace medsen::compress
