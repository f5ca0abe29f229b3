#include "compress/lzss.h"

#include <gtest/gtest.h>

#include <string>

#include "crypto/chacha20.h"
#include "reference_codec.h"

namespace medsen::compress {
namespace {

using reference::lzss_decompress;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Lzss, EmptyInput) {
  EXPECT_TRUE(lzss_compress({}).empty());
  EXPECT_TRUE(lzss_decompress({}).empty());
}

TEST(Lzss, RoundTripText) {
  const auto data = bytes_of(
      "abracadabra abracadabra abracadabra — repetition compresses well");
  const auto tokens = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(tokens), data);
}

TEST(Lzss, RepetitiveInputProducesMatches) {
  const auto data = bytes_of(std::string(1000, 'x'));
  const auto tokens = lzss_compress(data);
  EXPECT_LT(tokens.size(), 20u);  // run collapses to a few back-references
  std::size_t matches = 0;
  for (const auto& t : tokens)
    if (t.is_match) ++matches;
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(lzss_decompress(tokens), data);
}

TEST(Lzss, IncompressibleInputAllLiterals) {
  crypto::ChaChaRng rng(5);
  std::vector<std::uint8_t> data(256);
  rng.fill(data);
  const auto tokens = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(tokens), data);
}

TEST(Lzss, OverlappingMatchRle) {
  // "aaaa..." exercises the overlapping-copy semantics (distance 1,
  // length > 1).
  const auto data = bytes_of("a" + std::string(300, 'a'));
  const auto tokens = lzss_compress(data);
  bool has_overlap = false;
  for (const auto& t : tokens)
    if (t.is_match && t.distance < t.length) has_overlap = true;
  EXPECT_TRUE(has_overlap);
  EXPECT_EQ(lzss_decompress(tokens), data);
}

TEST(Lzss, MatchLengthRespectsCap) {
  const auto data = bytes_of(std::string(5000, 'z'));
  const auto tokens = lzss_compress(data);
  for (const auto& t : tokens) {
    if (t.is_match) {
      EXPECT_GE(t.length, kMinMatch);
      EXPECT_LE(t.length, kMaxMatch);
      EXPECT_GE(t.distance, 1u);
      EXPECT_LE(t.distance, kWindowSize);
    }
  }
}

TEST(Lzss, InvalidDistanceThrows) {
  std::vector<Token> tokens(1);
  tokens[0].is_match = true;
  tokens[0].length = 3;
  tokens[0].distance = 1;  // nothing in the window yet
  EXPECT_THROW(lzss_decompress(tokens), std::runtime_error);
}

TEST(Lzss, InvalidLengthThrows) {
  std::vector<Token> tokens(2);
  tokens[0].is_match = false;
  tokens[0].literal = 'a';
  tokens[1].is_match = true;
  tokens[1].length = 1;  // below kMinMatch
  tokens[1].distance = 1;
  EXPECT_THROW(lzss_decompress(tokens), std::runtime_error);
}

TEST(Lzss, LazyMatchingNotWorseThanGreedy) {
  const auto data = bytes_of(
      "abcde_bcdef_abcdef_abcdef repeated abcdef_abcdef patterns");
  LzssConfig lazy;
  lazy.lazy = true;
  LzssConfig greedy;
  greedy.lazy = false;
  const auto lazy_tokens = lzss_compress(data, lazy);
  const auto greedy_tokens = lzss_compress(data, greedy);
  EXPECT_EQ(lzss_decompress(lazy_tokens), data);
  EXPECT_EQ(lzss_decompress(greedy_tokens), data);
  EXPECT_LE(lazy_tokens.size(), greedy_tokens.size() + 2);
}

class LzssRandomRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LzssRandomRoundTrip, StructuredRandomData) {
  crypto::ChaChaRng rng(GetParam());
  // Mix of random bytes and repeated phrases, CSV-like.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 200; ++i) {
    const auto phrase = bytes_of("0.99" + std::to_string(rng.uniform(100)) +
                                 ",1.00" + std::to_string(rng.uniform(10)) +
                                 "\n");
    data.insert(data.end(), phrase.begin(), phrase.end());
  }
  const auto tokens = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(tokens), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzssRandomRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace medsen::compress
