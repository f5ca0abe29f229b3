#include "compress/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/chacha20.h"
#include "reference_codec.h"

namespace medsen::compress {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, CheckValue123456789) {
  // The standard CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  std::uint32_t state = crc32_init();
  for (char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    state = crc32_update(state, std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(crc32_final(state), crc32(as_bytes(msg)));
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  std::vector<std::uint8_t> data(100, 0x55);
  const auto original = crc32(data);
  data[50] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

TEST(Crc32, OrderSensitive) {
  const std::vector<std::uint8_t> ab = {'a', 'b'};
  const std::vector<std::uint8_t> ba = {'b', 'a'};
  EXPECT_NE(crc32(ab), crc32(ba));
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryAlignmentAndLength) {
  // Slice-by-8 folds eight bytes at a time; every start offset 0..7 and
  // every length 0..64 covers each split between the 8-byte body and the
  // bytewise head/tail.
  std::vector<std::uint8_t> buf(8 + 64);
  crypto::ChaChaRng rng(32);
  rng.fill(buf);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> view(buf.data() + start, len);
      EXPECT_EQ(crc32(view), reference::crc32(view))
          << "start " << start << " length " << len;
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryOffsetMatchesOneShot) {
  std::vector<std::uint8_t> buf(100);
  crypto::ChaChaRng rng(33);
  rng.fill(buf);
  const std::uint32_t whole = crc32(buf);
  EXPECT_EQ(whole, reference::crc32(buf));
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    std::uint32_t state = crc32_init();
    state = crc32_update(state, all.first(split));
    state = crc32_update(state, all.subspan(split));
    EXPECT_EQ(crc32_final(state), whole) << "split at " << split;
  }
}

TEST(Crc32, LargeBufferMatchesBytewise) {
  std::vector<std::uint8_t> buf(1 << 20);
  crypto::ChaChaRng rng(34);
  rng.fill(buf);
  EXPECT_EQ(crc32(buf), reference::crc32(buf));
}

}  // namespace
}  // namespace medsen::compress
