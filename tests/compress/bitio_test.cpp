#include "compress/bitio.h"

#include <gtest/gtest.h>

#include "crypto/chacha20.h"

namespace medsen::compress {
namespace {

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const std::vector<int> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  for (int b : bits) w.put(static_cast<std::uint32_t>(b), 1);
  const auto buf = w.finish();
  BitReader r(buf);
  for (int b : bits) EXPECT_EQ(r.get(1), static_cast<std::uint32_t>(b));
}

TEST(BitIo, LsbFirstWithinByte) {
  BitWriter w;
  w.put(1, 1);  // bit 0 of first byte
  w.put(0, 1);
  w.put(1, 1);  // bit 2
  const auto buf = w.finish();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b00000101);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.put(0x5, 3);
  w.put(0xABC, 12);
  w.put(0xDEADBEEF, 32);
  w.put(0x1, 1);
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.get(3), 0x5u);
  EXPECT_EQ(r.get(12), 0xABCu);
  EXPECT_EQ(r.get(32), 0xDEADBEEFu);
  EXPECT_EQ(r.get(1), 0x1u);
}

TEST(BitIo, MasksExtraHighBits) {
  BitWriter w;
  w.put(0xFF, 4);  // only low 4 bits kept
  const auto buf = w.finish();
  BitReader r(buf);
  EXPECT_EQ(r.get(4), 0xFu);
  EXPECT_EQ(r.get(4), 0u);  // padding
}

TEST(BitIo, CountTooLargeThrows) {
  BitWriter w;
  EXPECT_THROW(w.put(0, 33), std::invalid_argument);
  const std::vector<std::uint8_t> buf = {0};
  BitReader r(buf);
  EXPECT_THROW(r.get(33), std::invalid_argument);
}

TEST(BitIo, ReadPastEndThrows) {
  const std::vector<std::uint8_t> buf = {0xFF};
  BitReader r(buf);
  EXPECT_EQ(r.get(8), 0xFFu);
  EXPECT_THROW(r.get(1), std::out_of_range);
}

TEST(BitIo, BitCountTracksWrites) {
  BitWriter w;
  w.put(0, 5);
  w.put(0, 9);
  EXPECT_EQ(w.bit_count(), 14u);
}

TEST(BitIo, RandomizedRoundTrip) {
  crypto::ChaChaRng rng(21);
  std::vector<std::pair<std::uint32_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 2000; ++i) {
    const unsigned count = 1 + rng.uniform(32);
    const std::uint32_t value =
        count == 32 ? rng.next_u32() : rng.next_u32() & ((1u << count) - 1);
    fields.emplace_back(value, count);
    w.put(value, count);
  }
  const auto buf = w.finish();
  BitReader r(buf);
  for (const auto& [value, count] : fields) EXPECT_EQ(r.get(count), value);
}

}  // namespace
}  // namespace medsen::compress
