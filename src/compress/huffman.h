#pragma once
// Canonical Huffman coding. Symbol code lengths are computed from
// frequencies (package-merge-free heap construction with a length cap via
// frequency flattening), then canonical codes are assigned so only the
// length table needs to be transmitted.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitio.h"

namespace medsen::compress {

/// Maximum code length we emit (fits the 4-bit length fields used in the
/// container header).
constexpr unsigned kMaxCodeLength = 15;

/// Compute canonical code lengths for `freqs` (0-frequency symbols get
/// length 0 = absent). At most kMaxCodeLength; lengths are rebalanced if
/// the tree would exceed it.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

/// Canonical code table derived from lengths.
struct HuffmanCode {
  std::vector<std::uint16_t> codes;    ///< bit-reversed for LSB-first I/O
  std::vector<std::uint8_t> lengths;
};

/// Assign canonical codes (per deflate rules) from code lengths.
HuffmanCode build_codes(std::span<const std::uint8_t> lengths);

/// Encoder: writes symbol codes to a BitWriter.
class HuffmanEncoder {
 public:
  /// `freqs` are the counts of the symbols that will be encoded. Throws
  /// std::runtime_error if one of them has no code: validity is checked
  /// here, once, so encode() needs no per-symbol check.
  HuffmanEncoder(HuffmanCode code, std::span<const std::uint64_t> freqs);

  /// Precondition: `symbol` had a nonzero count in the constructor's
  /// `freqs`.
  void encode(BitWriter& out, std::uint16_t symbol) const {
    out.put(code_.codes[symbol], code_.lengths[symbol]);
  }

 private:
  HuffmanCode code_;
};

/// Decoder: a kTableBits-wide lookup table resolves every code up to that
/// length in one probe; longer codes take the canonical walk. Accepts
/// exactly what the canonical walk accepts, including incomplete and
/// over-subscribed length tables (the shortest matching code wins).
class HuffmanDecoder {
 public:
  static constexpr unsigned kTableBits = 10;
  /// Largest alphabet supported (the codec's literal/length alphabet).
  static constexpr std::size_t kMaxSymbols = 286;

  /// Throws std::invalid_argument for a length above kMaxCodeLength or
  /// more than kMaxSymbols lengths.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decode one symbol. Throws std::runtime_error on an invalid code and
  /// std::out_of_range if the stream ends inside the code.
  std::uint16_t decode(BitReader& in) const {
    in.refill();
    const std::uint16_t entry = table_[in.peek(kTableBits)];
    if (entry == 0) return decode_slow(in);
    in.skip(entry >> kLengthShift);
    return static_cast<std::uint16_t>(entry & kSymbolMask);
  }

 private:
  // Table entry: code length << kLengthShift | symbol; 0 = no code of at
  // most kTableBits bits matches (take the canonical walk).
  static constexpr unsigned kLengthShift = 9;
  static constexpr std::uint16_t kSymbolMask = (1u << kLengthShift) - 1;

  std::uint16_t decode_slow(BitReader& in) const;

  std::array<std::uint16_t, std::size_t{1} << kTableBits> table_{};
  // Canonical decoding arrays: first code and first index per length,
  // symbols sorted by (length, symbol).
  std::array<std::uint32_t, kMaxCodeLength + 2> first_code_{};
  std::array<std::uint32_t, kMaxCodeLength + 2> first_index_{};
  std::array<std::uint16_t, kMaxSymbols> symbols_{};
  unsigned max_len_ = 0;
};

}  // namespace medsen::compress
