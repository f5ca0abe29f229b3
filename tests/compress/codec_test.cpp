#include "compress/codec.h"

#include <gtest/gtest.h>

#include <string>

#include "alloc_probe.h"
#include "crypto/chacha20.h"
#include "reference_codec.h"
#include "sim/acquisition.h"
#include "util/csv.h"

namespace medsen::compress {
namespace {

/// Run decompress() with the allocation probe armed; returns the error
/// message ("" if it decoded) and the largest allocation it made.
struct ProbedDecode {
  std::string error;
  std::size_t largest_allocation = 0;
};

ProbedDecode probed_decompress(std::span<const std::uint8_t> packed) {
  ProbedDecode result;
  test::arm_allocation_probe();
  try {
    (void)decompress(packed);
    result.largest_allocation = test::disarm_allocation_probe();
  } catch (const std::runtime_error& e) {
    result.largest_allocation = test::disarm_allocation_probe();
    result.error = e.what();
  }
  return result;
}

void set_original_size(std::vector<std::uint8_t>& packed, std::uint64_t size) {
  for (std::size_t i = 0; i < 8; ++i)
    packed[4 + i] = static_cast<std::uint8_t>(size >> (8 * i));
}

TEST(Codec, EmptyRoundTrip) {
  const auto packed = compress({});
  EXPECT_TRUE(decompress(packed).empty());
}

TEST(Codec, TextRoundTrip) {
  const std::string text =
      "time,ch500000\n0,1.0001\n0.0022,0.9998\n0.0044,1.0002\n";
  const auto packed = compress_string(text);
  EXPECT_EQ(decompress_string(packed), text);
}

TEST(Codec, CsvLikeDataCompressesWell) {
  // The paper's 600 MB -> 240 MB (2.5x) claim is on CSV sensor dumps;
  // structurally similar data must compress by at least 2x here.
  std::string csv = "time,ch500000,ch1000000\n";
  crypto::ChaChaRng rng(3);
  for (int i = 0; i < 5000; ++i) {
    csv += std::to_string(i * 0.00222);
    csv += ",0.99";
    csv += std::to_string(rng.uniform(1000));
    csv += ",1.00";
    csv += std::to_string(rng.uniform(100));
    csv += "\n";
  }
  const auto packed = compress_string(csv);
  EXPECT_GT(compression_ratio(csv.size(), packed.size()), 2.0);
  EXPECT_EQ(decompress_string(packed), csv);
}

TEST(Codec, RandomDataRoundTrips) {
  crypto::ChaChaRng rng(7);
  std::vector<std::uint8_t> data(10000);
  rng.fill(data);
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

TEST(Codec, AllByteValuesRoundTrip) {
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 5; ++rep)
    for (int b = 0; b < 256; ++b)
      data.push_back(static_cast<std::uint8_t>(b));
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

TEST(Codec, BadMagicThrows) {
  auto packed = compress_string("hello world hello world");
  packed[0] ^= 0xFF;
  EXPECT_THROW(decompress(packed), std::runtime_error);
}

TEST(Codec, CorruptedPayloadDetected) {
  auto packed = compress_string(std::string(1000, 'q') + "tail");
  // Flip a byte in the entropy-coded payload (past the 16-byte header).
  packed[packed.size() - 3] ^= 0x10;
  EXPECT_THROW(decompress(packed), std::runtime_error);
}

TEST(Codec, TruncatedInputThrows) {
  const auto packed = compress_string("some reasonably sized content here");
  const std::span<const std::uint8_t> cut(packed.data(), packed.size() / 2);
  EXPECT_THROW(decompress(cut), std::runtime_error);
}

TEST(Codec, SingleByteRoundTrip) {
  const std::vector<std::uint8_t> data = {42};
  EXPECT_EQ(decompress(compress(data)), data);
}

TEST(Codec, RatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(compression_ratio(100, 0), 0.0);
}

class CodecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecSizeSweep, RoundTripAtManySizes) {
  crypto::ChaChaRng rng(GetParam() + 100);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data)
    b = static_cast<std::uint8_t>(rng.uniform(16));  // compressible
  const auto packed = compress(data);
  EXPECT_EQ(decompress(packed), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecSizeSweep,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 255, 256,
                                           1000, 65536));

TEST(Codec, TrailingBytesRejected) {
  auto packed = compress_string("strict containers end where they end");
  packed.push_back(0x00);
  EXPECT_THROW(decompress(packed), std::runtime_error);
  packed.pop_back();
  EXPECT_NO_THROW(decompress(packed));
}

TEST(Codec, HostileOriginalSizeDoesNotPreallocate) {
  // Corrupt the header's original-size field to 2^64-1: the decoder must
  // fail with size/CRC mismatch, not attempt an exabyte reserve().
  auto packed = compress_string("header fields are attacker-controlled");
  for (std::size_t i = 4; i < 12; ++i) packed[i] = 0xFF;
  EXPECT_THROW(decompress(packed), std::runtime_error);

  // A claim of 2^40 bytes over a small valid stream: the output grows
  // with the decoded bytes, so no allocation exceeds twice what the
  // stream actually decodes to.
  std::string text;
  for (int i = 0; i < 40; ++i) text += "row " + std::to_string(i) + ",1.0\n";
  packed = compress_string(text);
  set_original_size(packed, std::uint64_t{1} << 40);
  const ProbedDecode probe = probed_decompress(packed);
  EXPECT_EQ(probe.error, "decompress: size mismatch");
  EXPECT_GT(probe.largest_allocation, 0u);
  EXPECT_LE(probe.largest_allocation, 2 * text.size());
}

TEST(Codec, StreamPastOriginalSizeRejectedBeforeWritingPastIt) {
  // The stream decodes to 1000 bytes but the header claims 100: the
  // decoder stops at the token that would cross the claim, so its output
  // buffer never holds more than the claimed 100 bytes.
  crypto::ChaChaRng rng(9);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(8));
  auto packed = compress(data);
  set_original_size(packed, 100);
  const ProbedDecode probe = probed_decompress(packed);
  EXPECT_EQ(probe.error, "decompress: size mismatch");
  EXPECT_LE(probe.largest_allocation, 100u);
  // The reference decoder gives the same verdict.
  try {
    (void)reference::decompress(packed);
    ADD_FAILURE() << "reference accepted an oversized stream";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "decompress: size mismatch");
  }
}

TEST(Codec, TruncatedStreamThrowsRuntimeErrorNeverOutOfRange) {
  crypto::ChaChaRng rng(10);
  std::vector<std::uint8_t> data(3000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(20));
  const auto packed = compress(data);
  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(packed.data(), cut);
    try {
      (void)decompress(prefix);
      ADD_FAILURE() << "accepted a prefix of " << cut << " bytes";
    } catch (const std::out_of_range&) {
      ADD_FAILURE() << "out_of_range escaped at cut " << cut;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "decompress: truncated stream") << "cut " << cut;
    }
  }
}

TEST(Codec, LongAndFifteenBitCodesDecodeThroughSlowPath) {
  // A complete literal/length code where literal i has an (i+1)-bit code
  // (i < 13) and literals 13, 14, the end-of-block and length slot 0
  // share the four 15-bit codes; distance slot s has an (s+1)-bit code
  // (s < 12) and slot 12 shares 12 bits. Codes above the decoder's lookup
  // width take the canonical walk; the container must decode exactly as
  // it does through the reference.
  std::vector<std::uint8_t> lit_lengths(286, 0);
  for (std::uint8_t i = 0; i < 13; ++i) lit_lengths[i] = i + 1;
  lit_lengths[13] = lit_lengths[14] = lit_lengths[256] = lit_lengths[257] = 15;
  std::vector<std::uint8_t> dist_lengths(30, 0);
  for (std::uint8_t s = 0; s < 12; ++s) dist_lengths[s] = s + 1;
  dist_lengths[12] = 12;

  std::vector<std::uint8_t> original;
  std::vector<Token> tokens;
  auto literal = [&](std::uint8_t b) {
    Token t;
    t.literal = b;
    tokens.push_back(t);
    original.push_back(b);
  };
  auto match = [&](std::uint16_t distance) {  // length 3
    Token t;
    t.is_match = true;
    t.length = 3;
    t.distance = distance;
    tokens.push_back(t);
    for (int i = 0; i < 3; ++i)
      original.push_back(original[original.size() - distance]);
  };
  for (int i = 0; i < 70; ++i) literal(static_cast<std::uint8_t>(14 - i % 15));
  match(50);  // distance slot 11: a 12-bit code
  match(70);  // distance slot 12: a 12-bit code
  literal(13);

  const auto packed =
      reference::pack(tokens, lit_lengths, dist_lengths, original);
  EXPECT_EQ(decompress(packed), original);
  EXPECT_EQ(reference::decompress(packed), original);
}

TEST(Codec, BitFlipSweepNeverCrashes) {
  // Any single-bit corruption anywhere in the container must surface as
  // the structured corruption error, never UB or a crash.
  const auto packed = compress_string("bit flip sweep over the container");
  for (std::size_t bit = 0; bit < packed.size() * 8; ++bit) {
    auto corrupted = packed;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      const auto out = decompress(corrupted);
      // A flip that survives CRC+size checks must decode identically.
      EXPECT_EQ(out.size(), std::string("bit flip sweep over the container")
                                .size());
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace medsen::compress
