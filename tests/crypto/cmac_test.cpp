#include "crypto/cmac.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/constant_time.h"

namespace medsen::crypto {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  return bytes;
}

std::string hex_of(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0x0f]);
  }
  return out;
}

// The RFC 4493 key and message shared by all four example vectors.
const std::string kRfcKey = "2b7e151628aed2a6abf7158809cf4f3c";
const std::string kRfcMessage =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

TEST(Cmac, Rfc4493EmptyMessage) {
  const auto tag = aes_cmac(from_hex(kRfcKey), {});
  EXPECT_EQ(hex_of(tag), "bb1d6929e95937287fa37d129b756746");
}

// One full block: the message is XORed with subkey K1 — pins the K1 path
// of the RFC's subkey generation.
TEST(Cmac, Rfc4493OneBlock) {
  const auto msg = from_hex(kRfcMessage.substr(0, 32));
  const auto tag = aes_cmac(from_hex(kRfcKey), msg);
  EXPECT_EQ(hex_of(tag), "070a16b46b4d4144f79bdd9dd04a287c");
}

// 40 bytes: a ragged final block, padded and XORed with K2.
TEST(Cmac, Rfc4493FortyBytes) {
  const auto msg = from_hex(kRfcMessage.substr(0, 80));
  const auto tag = aes_cmac(from_hex(kRfcKey), msg);
  EXPECT_EQ(hex_of(tag), "dfa66747de9ae63030ca32611497c827");
}

TEST(Cmac, Rfc4493FourBlocks) {
  const auto tag = aes_cmac(from_hex(kRfcKey), from_hex(kRfcMessage));
  EXPECT_EQ(hex_of(tag), "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Cmac, RejectsNon16ByteKey) {
  const std::vector<std::uint8_t> short_key(8, 0x11);
  EXPECT_THROW(aes_cmac(short_key, {}), std::invalid_argument);
  const std::vector<std::uint8_t> long_key(24, 0x22);
  EXPECT_THROW(aes_cmac(long_key, {}), std::invalid_argument);
}

TEST(Kdf, DeterministicAndLabelSeparated) {
  const auto key = from_hex(kRfcKey);
  const std::vector<std::uint8_t> context = {1, 2, 3, 4};
  const auto a = kdf_cmac(key, "medsen-a", context, 32);
  const auto b = kdf_cmac(key, "medsen-a", context, 32);
  const auto c = kdf_cmac(key, "medsen-b", context, 32);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 32u);
}

TEST(Kdf, ContextSeparated) {
  const auto key = from_hex(kRfcKey);
  const std::vector<std::uint8_t> ctx_a = {1, 2, 3};
  const std::vector<std::uint8_t> ctx_b = {1, 2, 4};
  EXPECT_NE(kdf_cmac(key, "medsen-x", ctx_a, 16),
            kdf_cmac(key, "medsen-x", ctx_b, 16));
}

// A multi-block output's prefix must NOT equal the shorter derivation of
// the same label/context: the length is bound into every PRF block, so
// truncation of a long key can never collide with a short one.
TEST(Kdf, LengthIsBoundIntoDerivation) {
  const auto key = from_hex(kRfcKey);
  const std::vector<std::uint8_t> context = {9, 9, 9};
  const auto short_key = kdf_cmac(key, "medsen-l", context, 16);
  const auto long_key = kdf_cmac(key, "medsen-l", context, 48);
  EXPECT_EQ(long_key.size(), 48u);
  const std::vector<std::uint8_t> prefix(long_key.begin(),
                                         long_key.begin() + 16);
  EXPECT_NE(prefix, short_key);
}

TEST(Kdf, RejectsDegenerateLengths) {
  const auto key = from_hex(kRfcKey);
  EXPECT_THROW(kdf_cmac(key, "l", {}, 0), std::invalid_argument);
  EXPECT_THROW(kdf_cmac(key, "l", {}, 255 * 16 + 1), std::invalid_argument);
}

// Lengths above 255 * 8 bytes used to overflow the KDF's 8-bit length
// field; the field is 16-bit now, and the largest legal output pins it.
TEST(Kdf, MaxLengthDerives) {
  const auto key = from_hex(kRfcKey);
  const auto out = kdf_cmac(key, "l", {}, 255 * 16);
  EXPECT_EQ(out.size(), 255u * 16u);
}

TEST(Diversify, PerDeviceAndPerEpoch) {
  const auto master = from_hex(kRfcKey);
  const auto d1e0 = diversify_device_key(master, 1, 0);
  const auto d2e0 = diversify_device_key(master, 2, 0);
  const auto d1e1 = diversify_device_key(master, 1, 1);
  EXPECT_EQ(d1e0.size(), 16u);
  EXPECT_NE(d1e0, d2e0);
  EXPECT_NE(d1e0, d1e1);
  EXPECT_EQ(d1e0, diversify_device_key(master, 1, 0));
}

TEST(SessionKeys, BothSidesDeriveTheSameKey) {
  const auto device_key = from_hex(kRfcKey);
  const std::vector<std::uint8_t> rnd_a(16, 0xa1);
  const std::vector<std::uint8_t> rnd_b(16, 0xb2);
  const auto mac_key = derive_session_mac_key(device_key, rnd_a, rnd_b);
  EXPECT_EQ(mac_key.size(), 32u);
  EXPECT_EQ(mac_key, derive_session_mac_key(device_key, rnd_a, rnd_b));
  // Swapped nonces derive a different key — direction is bound in.
  EXPECT_NE(mac_key, derive_session_mac_key(device_key, rnd_b, rnd_a));
}

TEST(SessionKeys, ProofNeverDoublesAsKeyMaterial) {
  const auto device_key = from_hex(kRfcKey);
  const std::vector<std::uint8_t> rnd_a(16, 0x01);
  const std::vector<std::uint8_t> rnd_b(16, 0x02);
  const auto proof = session_proof(device_key, rnd_a, rnd_b);
  const auto mac_key = derive_session_mac_key(device_key, rnd_a, rnd_b);
  const std::vector<std::uint8_t> key_prefix(mac_key.begin(),
                                             mac_key.begin() + proof.size());
  EXPECT_FALSE(constant_time_equal(proof, key_prefix));
}

// Session keys derive from 16-byte device keys only: a free-form key
// (the retired static-key plane's shape) is refused, not hashed to fit.
TEST(SessionKeys, FreeFormKeysAreRejected) {
  const std::vector<std::uint8_t> legacy = {'d', 'e', 'v', '-', '4', '2'};
  const std::vector<std::uint8_t> rnd_a(16, 0x0a);
  const std::vector<std::uint8_t> rnd_b(16, 0x0b);
  EXPECT_THROW((void)derive_session_mac_key(legacy, rnd_a, rnd_b),
               std::invalid_argument);
  EXPECT_THROW((void)session_proof(legacy, rnd_a, rnd_b),
               std::invalid_argument);
}

TEST(ConstantTime, EqualAndUnequal) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {1, 2, 3, 4};
  const std::vector<std::uint8_t> c = {1, 2, 3, 5};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
}

TEST(ConstantTime, LengthMismatchIsFalse) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {1, 2, 3};
  EXPECT_FALSE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(b, a));
}

TEST(ConstantTime, EmptyInputsAreEqual) {
  EXPECT_TRUE(constant_time_equal({}, {}));
}

}  // namespace
}  // namespace medsen::crypto
