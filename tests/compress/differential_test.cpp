// Differential tests against the test-only reference codec
// (reference_codec.h): the optimized encoder must emit the reference's
// exact bytes, each decoder must round-trip the other's output, and both
// decoders must give the same verdict — the same bytes or the same error
// message — on truncated, bit-flipped and hostile containers, and on the
// whole fuzz seed corpus.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/lzss.h"
#include "crypto/chacha20.h"
#include "reference_codec.h"

namespace medsen::compress {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// What a decoder made of a container: the bytes, or the error message.
struct Verdict {
  bool accepted = false;
  Bytes bytes;
  std::string error;

  bool operator==(const Verdict&) const = default;
};

template <typename Decode>
Verdict verdict_of(Decode&& decode, std::span<const std::uint8_t> packed) {
  Verdict v;
  try {
    v.bytes = decode(packed);
    v.accepted = true;
  } catch (const std::runtime_error& e) {
    v.error = e.what();
  }
  return v;
}

void expect_same_verdict(std::span<const std::uint8_t> packed,
                         const std::string& what) {
  const Verdict fast = verdict_of(
      [](std::span<const std::uint8_t> p) { return decompress(p); }, packed);
  const Verdict ref = verdict_of(
      [](std::span<const std::uint8_t> p) { return reference::decompress(p); },
      packed);
  EXPECT_EQ(fast.accepted, ref.accepted) << what;
  EXPECT_EQ(fast.error, ref.error) << what;
  EXPECT_TRUE(fast.bytes == ref.bytes) << what << ": decoded bytes differ";
}

/// Seeded inputs of several shapes: random bytes, small alphabets, runs,
/// CSV-like text and little-endian doubles (the relay's payload shape).
Bytes random_input(crypto::ChaChaRng& rng, std::size_t size) {
  Bytes out;
  out.reserve(size);
  switch (rng.uniform(5)) {
    case 0:
      out.resize(size);
      rng.fill(out);
      break;
    case 1: {
      const auto alphabet = 1 + rng.uniform(16);
      for (std::size_t i = 0; i < size; ++i)
        out.push_back(static_cast<std::uint8_t>(rng.uniform(alphabet)));
      break;
    }
    case 2:
      while (out.size() < size) {
        const auto run = 1 + rng.uniform(600);
        const auto byte = static_cast<std::uint8_t>(rng.uniform(4));
        for (std::uint32_t i = 0; i < run && out.size() < size; ++i)
          out.push_back(byte);
      }
      break;
    case 3:
      while (out.size() < size) {
        const std::string row = "0.99" + std::to_string(rng.uniform(1000)) +
                                ",1.00" + std::to_string(rng.uniform(50)) +
                                "\n";
        for (char c : row)
          if (out.size() < size) out.push_back(static_cast<std::uint8_t>(c));
      }
      break;
    default: {
      double value = 1.0;
      while (out.size() < size) {
        value += (static_cast<double>(rng.uniform(2001)) - 1000.0) * 1e-7;
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        for (int b = 0; b < 8 && out.size() < size; ++b)
          out.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
      }
      break;
    }
  }
  return out;
}

std::size_t random_size(crypto::ChaChaRng& rng, int i) {
  // Mostly small; every 200th input crosses the 32 KiB window.
  if (i % 200 == 0) return 32768 + rng.uniform(40000);
  return rng.uniform(i % 10 == 0 ? 5000 : 700);
}

TEST(Differential, CompressMatchesReferenceOnRandomInputs) {
  crypto::ChaChaRng rng(20240607);
  constexpr int kInputs = 10000;
  for (int i = 0; i < kInputs; ++i) {
    const Bytes input = random_input(rng, random_size(rng, i));
    const Bytes fast = compress(input);
    const Bytes ref = reference::compress(input);
    ASSERT_EQ(fast, ref) << "input " << i << " (" << input.size()
                         << " bytes)";
    ASSERT_EQ(decompress(ref), input) << "input " << i;
    ASSERT_EQ(reference::decompress(fast), input) << "input " << i;
  }
}

TEST(Differential, TokensMatchReferenceForEveryMatcherSetting) {
  crypto::ChaChaRng rng(77);
  const LzssConfig configs[] = {
      {1, true}, {4, true}, {64, true}, {300, true}, {64, false}, {8, false}};
  for (int i = 0; i < 300; ++i) {
    const Bytes input = random_input(rng, random_size(rng, i));
    for (const LzssConfig& config : configs) {
      const auto fast = lzss_compress(input, config);
      const auto ref = reference::lzss_compress(input, config);
      ASSERT_EQ(fast.size(), ref.size()) << "input " << i;
      for (std::size_t t = 0; t < fast.size(); ++t) {
        ASSERT_EQ(fast[t].is_match, ref[t].is_match) << i << "/" << t;
        ASSERT_EQ(fast[t].literal, ref[t].literal) << i << "/" << t;
        ASSERT_EQ(fast[t].length, ref[t].length) << i << "/" << t;
        ASSERT_EQ(fast[t].distance, ref[t].distance) << i << "/" << t;
      }
      ASSERT_EQ(compress(input, config), reference::compress(input, config));
    }
  }
}

TEST(Differential, VerdictsMatchOnTruncatedContainers) {
  crypto::ChaChaRng rng(5);
  for (int i = 0; i < 40; ++i) {
    const Bytes packed = compress(random_input(rng, rng.uniform(400)));
    for (std::size_t cut = 0; cut <= packed.size(); ++cut)
      expect_same_verdict(std::span(packed).first(cut),
                          "input " + std::to_string(i) + " cut at " +
                              std::to_string(cut));
  }
}

TEST(Differential, VerdictsMatchOnBitFlips) {
  crypto::ChaChaRng rng(6);
  for (int i = 0; i < 12; ++i) {
    const Bytes packed = compress(random_input(rng, rng.uniform(300)));
    for (std::size_t bit = 0; bit < packed.size() * 8; ++bit) {
      Bytes corrupted = packed;
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_same_verdict(corrupted, "input " + std::to_string(i) +
                                         " bit " + std::to_string(bit));
    }
  }
}

TEST(Differential, VerdictsMatchOnHostileCodeTables) {
  // Random length tables are mostly incomplete or over-subscribed; the
  // table-driven decoder must resolve them exactly as the canonical walk
  // does. A huge original size keeps the size check out of the way so
  // the streams are decoded until they break.
  crypto::ChaChaRng rng(8);
  for (int i = 0; i < 3000; ++i) {
    Bytes packed = {0x31, 0x5A, 0x53, 0x4D};  // "MSZ1", little-endian
    for (int b = 0; b < 8; ++b) packed.push_back(i % 3 == 0 ? 0 : 0xFF);
    for (int b = 0; b < 4; ++b)
      packed.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    // 158 bytes of 4-bit code lengths, biased toward sparse tables.
    for (int b = 0; b < 158; ++b) {
      const auto lo = rng.uniform(3) == 0 ? rng.uniform(16) : 0;
      const auto hi = rng.uniform(3) == 0 ? rng.uniform(16) : 0;
      packed.push_back(static_cast<std::uint8_t>(lo | (hi << 4)));
    }
    Bytes body(rng.uniform(64));
    rng.fill(body);
    packed.insert(packed.end(), body.begin(), body.end());
    expect_same_verdict(packed, "table " + std::to_string(i));
  }
}

TEST(Differential, VerdictsMatchOnFuzzCorpus) {
  const std::filesystem::path dir =
      std::filesystem::path(MEDSEN_FUZZ_CORPUS_DIR) / "codec";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const Bytes seed{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    const std::string name = entry.path().filename().string();
    ++files;
    expect_same_verdict(seed, name);
    for (std::size_t cut = 0; cut < seed.size(); ++cut)
      expect_same_verdict(std::span(seed).first(cut),
                          name + " cut at " + std::to_string(cut));
    for (std::size_t bit = 0; bit < seed.size() * 8; ++bit) {
      Bytes corrupted = seed;
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_same_verdict(corrupted, name + " bit " + std::to_string(bit));
    }
  }
  EXPECT_GE(files, 7u) << "codec seed corpus missing from " << dir;
}

}  // namespace
}  // namespace medsen::compress
