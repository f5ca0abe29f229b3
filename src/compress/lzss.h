#pragma once
// LZSS match finding over a 32 KiB sliding window with hash-chain search.
// Produces a token stream (literals and back-references) that the codec
// entropy-codes with canonical Huffman — a deflate-like pipeline, which is
// what the paper's phone-side "zip data compression" stage does to the CSV
// measurement dumps.

#include <cstdint>
#include <span>
#include <vector>

namespace medsen::compress {

/// One LZSS token: a literal byte or a (length, distance) back-reference.
struct Token {
  bool is_match = false;
  std::uint8_t literal = 0;   ///< valid when !is_match
  std::uint16_t length = 0;   ///< match length, kMinMatch..kMaxMatch
  std::uint16_t distance = 0; ///< backward distance, 1..kWindowSize
};

constexpr std::size_t kWindowSize = 32768;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;

struct LzssConfig {
  unsigned max_chain = 64;   ///< hash-chain positions probed per match
  bool lazy = true;          ///< one-step-lazy matching (deflate style)
};

/// Tokenize `data`. At each position the match is the longest within
/// the first `max_chain` hash-chain candidates (the nearest on ties); the
/// token stream is part of the wire format, so it must not change.
std::vector<Token> lzss_compress(std::span<const std::uint8_t> data,
                                 const LzssConfig& config = {});

}  // namespace medsen::compress
