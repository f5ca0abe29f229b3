#pragma once
// Test-only oracle: the straightforward MSZ1 codec the optimized
// src/compress implementation must match bit for bit. Everything here is
// deliberately naive — one bit per BitReader::get iteration, a bytewise
// CRC, a canonical-walk Huffman decoder, linear slot scans, a bytewise
// match finder — so its behaviour can be read off the code. Tests check
// that compress::compress() emits exactly reference::compress()'s bytes
// and that compress::decompress() accepts and rejects exactly what
// reference::decompress() does.
//
// Only the plain data types (Token, LzssConfig, the window and match-length
// constants) are shared with src/compress; every algorithm is a private
// copy so a change in src cannot silently change the oracle too.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/lzss.h"

namespace medsen::compress::reference {

/// Writes bits LSB-first into a growing byte vector, one byte at a time.
class BitWriter {
 public:
  /// Append the low `count` bits of `bits` (count <= 32).
  void put(std::uint32_t bits, unsigned count);
  /// Pad to a byte boundary with zero bits and return the buffer.
  std::vector<std::uint8_t> finish();
  [[nodiscard]] std::size_t bit_count() const { return total_bits_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::uint64_t acc_ = 0;
  unsigned acc_bits_ = 0;
  std::size_t total_bits_ = 0;
};

/// Reads bits LSB-first, one bit per step; throws std::out_of_range past
/// the end.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `count` bits (count <= 32).
  std::uint32_t get(unsigned count);
  /// Read a single bit.
  std::uint32_t bit() { return get(1); }
  [[nodiscard]] std::size_t bits_consumed() const { return pos_bits_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_bits_ = 0;
};

/// Bytewise CRC-32 (IEEE, reflected, init and final XOR 0xFFFFFFFF).
std::uint32_t crc32(std::span<const std::uint8_t> data);
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data);

constexpr unsigned kMaxCodeLength = 15;

/// Heap-built code lengths capped at kMaxCodeLength by halving the
/// frequencies and retrying.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

struct HuffmanCode {
  std::vector<std::uint16_t> codes;  ///< bit-reversed for LSB-first I/O
  std::vector<std::uint8_t> lengths;
};

/// Deflate canonical code assignment.
HuffmanCode build_codes(std::span<const std::uint8_t> lengths);

/// Per-symbol checked encoder: throws std::runtime_error for a symbol
/// without a code.
class HuffmanEncoder {
 public:
  explicit HuffmanEncoder(HuffmanCode code) : code_(std::move(code)) {}
  void encode(BitWriter& out, std::uint16_t symbol) const;

 private:
  HuffmanCode code_;
};

/// Canonical-walk decoder: reads one bit per code length.
class HuffmanDecoder {
 public:
  /// Throws std::invalid_argument for a length above kMaxCodeLength.
  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);
  /// Throws std::runtime_error on an invalid code, std::out_of_range
  /// (from the reader) on a truncated one.
  std::uint16_t decode(BitReader& in) const;

 private:
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint16_t> symbols_;
  unsigned max_len_ = 0;
};

/// Hash-chain LZSS with one-step lazy matching; bytewise comparisons.
std::vector<Token> lzss_compress(std::span<const std::uint8_t> data,
                                 const LzssConfig& config = {});

/// Replays tokens; throws std::runtime_error on an invalid reference.
std::vector<std::uint8_t> lzss_decompress(std::span<const Token> tokens);

/// Entropy-code `tokens` with the canonical codes of the given length
/// tables (286 literal/length, 30 distance) into an MSZ1 container whose
/// header describes `original`. Lets tests build containers with code
/// tables compress() would never choose; every symbol used needs a code.
std::vector<std::uint8_t> pack(std::span<const Token> tokens,
                               std::span<const std::uint8_t> lit_lengths,
                               std::span<const std::uint8_t> dist_lengths,
                               std::span<const std::uint8_t> original);

/// The MSZ1 container encoder: LZSS tokens, Huffman lengths from their
/// frequencies, then pack().
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> data,
                                   const LzssConfig& config = {});

/// The MSZ1 container decoder; throws std::runtime_error on every
/// rejection (truncation included).
std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> packed);

}  // namespace medsen::compress::reference
