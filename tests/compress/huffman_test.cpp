#include "compress/huffman.h"

#include <gtest/gtest.h>

#include <cmath>

#include <numeric>

#include "crypto/chacha20.h"
#include "reference_codec.h"

namespace medsen::compress {
namespace {

TEST(Huffman, LengthsSatisfyKraft) {
  std::vector<std::uint64_t> freqs = {100, 50, 25, 12, 6, 3, 1, 1};
  const auto lengths = huffman_code_lengths(freqs);
  double kraft = 0.0;
  for (auto len : lengths)
    if (len > 0) kraft += std::pow(2.0, -static_cast<double>(len));
  EXPECT_NEAR(kraft, 1.0, 1e-12);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs = {1000, 10, 10, 10};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_LT(lengths[0], lengths[1]);
}

TEST(Huffman, ZeroFrequencySymbolsAbsent) {
  std::vector<std::uint64_t> freqs = {5, 0, 5};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 0);
  EXPECT_GT(lengths[0], 0);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs = {0, 7, 0};
  const auto lengths = huffman_code_lengths(freqs);
  EXPECT_EQ(lengths[1], 1);
}

TEST(Huffman, AllZeroFrequencies) {
  std::vector<std::uint64_t> freqs = {0, 0, 0};
  const auto lengths = huffman_code_lengths(freqs);
  for (auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(Huffman, RespectsMaxCodeLength) {
  // Fibonacci-like frequencies force deep trees; lengths must be capped.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  const auto lengths = huffman_code_lengths(freqs);
  for (auto len : lengths) EXPECT_LE(len, kMaxCodeLength);
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> freqs = {50, 30, 10, 5, 3, 2};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(build_codes(lengths), freqs);
  const HuffmanDecoder decoder(lengths);

  crypto::ChaChaRng rng(17);
  std::vector<std::uint16_t> symbols;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const auto s = static_cast<std::uint16_t>(rng.uniform(6));
    symbols.push_back(s);
    encoder.encode(w, s);
  }
  const auto buf = w.finish();
  BitReader r(buf);
  for (auto expected : symbols) EXPECT_EQ(decoder.decode(r), expected);
}

TEST(Huffman, EncodingAbsentSymbolThrows) {
  // The check runs once, when the encoder is built for the symbols it
  // will be asked to encode.
  std::vector<std::uint64_t> freqs = {5, 0, 5};
  const auto lengths = huffman_code_lengths(freqs);
  const std::vector<std::uint64_t> used = {5, 1, 5};
  EXPECT_THROW(HuffmanEncoder(build_codes(lengths), used), std::runtime_error);
  EXPECT_NO_THROW(HuffmanEncoder(build_codes(lengths), freqs));
}

TEST(Huffman, CompressionBeatsFixedWidth) {
  // Skewed distribution: entropy ~1.16 bits << 3 fixed bits.
  std::vector<std::uint64_t> freqs = {800, 100, 50, 25, 12, 6, 4, 3};
  const auto lengths = huffman_code_lengths(freqs);
  const HuffmanEncoder encoder(build_codes(lengths), freqs);
  BitWriter w;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    for (std::uint64_t i = 0; i < freqs[s]; ++i)
      encoder.encode(w, static_cast<std::uint16_t>(s));
  const std::uint64_t total =
      std::accumulate(freqs.begin(), freqs.end(), std::uint64_t{0});
  EXPECT_LT(w.bit_count(), total * 2);  // < 2 bits/symbol average
}

TEST(Huffman, DecoderRejectsOverlongLengths) {
  std::vector<std::uint8_t> lengths = {16};
  EXPECT_THROW(HuffmanDecoder{lengths}, std::invalid_argument);
}

/// A complete code whose symbol i has an (i+1)-bit code for i < 14 and
/// symbols 14 and 15 share 15 bits: five codes longer than the decoder's
/// lookup table, two of them at the 15-bit maximum.
std::vector<std::uint8_t> staircase_lengths() {
  std::vector<std::uint8_t> lengths;
  for (std::uint8_t i = 0; i < 14; ++i) lengths.push_back(i + 1);
  lengths.push_back(15);
  lengths.push_back(15);
  return lengths;
}

TEST(Huffman, CodesLongerThanTheTableDecodeThroughTheSlowPath) {
  static_assert(HuffmanDecoder::kTableBits < kMaxCodeLength);
  const auto lengths = staircase_lengths();
  std::vector<std::uint64_t> freqs(lengths.size(), 1);
  const HuffmanEncoder encoder(build_codes(lengths), freqs);
  const HuffmanDecoder decoder(lengths);

  crypto::ChaChaRng rng(18);
  std::vector<std::uint16_t> symbols;
  BitWriter w;
  for (int i = 0; i < 4000; ++i) {
    // Favour the long codes: half the symbols come from the slow path.
    const auto s = static_cast<std::uint16_t>(
        i % 2 == 0 ? HuffmanDecoder::kTableBits + rng.uniform(6)
                   : rng.uniform(16));
    symbols.push_back(s);
    encoder.encode(w, s);
  }
  const std::size_t bits_written = w.bit_count();
  const auto buf = w.finish();
  BitReader r(buf);
  for (auto expected : symbols) ASSERT_EQ(decoder.decode(r), expected);
  EXPECT_EQ(r.bits_consumed(), bits_written);
}

TEST(Huffman, FifteenBitCodeCutShortIsTruncationNotInvalid) {
  // The last symbol's 15-bit code runs past the end of the stream: the
  // decoder must report truncation (out_of_range) like a bit-at-a-time
  // reader, not an invalid code.
  const auto lengths = staircase_lengths();
  std::vector<std::uint64_t> freqs(lengths.size(), 1);
  const HuffmanEncoder encoder(build_codes(lengths), freqs);
  BitWriter w;
  encoder.encode(w, 15);
  auto buf = w.finish();
  buf.pop_back();  // 15 bits -> 8
  BitReader r(buf);
  EXPECT_THROW(HuffmanDecoder(lengths).decode(r), std::out_of_range);
}

TEST(Huffman, TableDecoderMatchesCanonicalWalkOnArbitraryTables) {
  // Random length tables are mostly incomplete or over-subscribed; on
  // every bit stream the table-driven decoder must return the symbols the
  // canonical walk returns, consume the same bits, and fail the same way.
  crypto::ChaChaRng rng(19);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> lengths(1 + rng.uniform(40));
    for (auto& len : lengths)
      len = static_cast<std::uint8_t>(rng.uniform(2) ? rng.uniform(16) : 0);
    std::vector<std::uint8_t> stream(rng.uniform(24));
    rng.fill(stream);

    const HuffmanDecoder fast(lengths);
    const reference::HuffmanDecoder walk(lengths);
    BitReader fast_in(stream);
    reference::BitReader walk_in(stream);
    for (int step = 0; step < 200; ++step) {
      std::string fast_error, walk_error;
      std::uint16_t fast_sym = 0, walk_sym = 0;
      try {
        fast_sym = fast.decode(fast_in);
      } catch (const std::out_of_range&) {
        fast_error = "truncated";
      } catch (const std::runtime_error& e) {
        fast_error = e.what();
      }
      try {
        walk_sym = walk.decode(walk_in);
      } catch (const std::out_of_range&) {
        walk_error = "truncated";
      } catch (const std::runtime_error& e) {
        walk_error = e.what();
      }
      ASSERT_EQ(fast_error, walk_error) << "trial " << trial << " step " << step;
      if (!fast_error.empty()) break;
      ASSERT_EQ(fast_sym, walk_sym) << "trial " << trial << " step " << step;
      ASSERT_EQ(fast_in.bits_consumed(), walk_in.bits_consumed());
    }
  }
}

}  // namespace
}  // namespace medsen::compress
