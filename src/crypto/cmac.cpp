#include "crypto/cmac.h"

#include <stdexcept>

#include "util/secure_zero.h"
#include "util/serialize.h"

namespace medsen::crypto {

namespace {

constexpr std::size_t kBlock = Aes128::kBlockSize;

/// GF(2^128) doubling with the RFC 4493 reduction constant: shift left
/// one bit, XOR 0x87 into the last byte when the carried-out bit was
/// set. Branch-free on the carry so subkey generation leaks nothing.
std::array<std::uint8_t, kBlock> gf_double(
    const std::array<std::uint8_t, kBlock>& in) {
  std::array<std::uint8_t, kBlock> out{};
  std::uint8_t carry = 0;
  for (std::size_t i = kBlock; i-- > 0;) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
    carry = static_cast<std::uint8_t>(in[i] >> 7);
  }
  out[kBlock - 1] ^= static_cast<std::uint8_t>(0x87 & (0u - carry));
  return out;
}

}  // namespace

CmacTag aes_cmac(std::span<const std::uint8_t> key,
                 std::span<const std::uint8_t> data) {
  if (key.size() != Aes128::kKeySize)
    throw std::invalid_argument("aes_cmac: key must be 16 bytes");
  const Aes128 cipher(
      std::span<const std::uint8_t, Aes128::kKeySize>(key.data(),
                                                      Aes128::kKeySize));

  // Subkeys K1/K2 from L = AES(key, 0^128). All three are key-equivalent
  // (an attacker holding K1 can forge single-block tags), so they are
  // wiped before returning.
  std::array<std::uint8_t, kBlock> l{};  // medsen: secret
  cipher.encrypt_block(l);
  auto k1 = gf_double(l);  // medsen: secret
  auto k2 = gf_double(k1);  // medsen: secret
  util::secure_wipe(l);

  const std::size_t n = data.size();
  // Number of full blocks before the final (possibly padded) one.
  const std::size_t full =
      n == 0 ? 0 : (n % kBlock == 0 ? n / kBlock - 1 : n / kBlock);

  std::array<std::uint8_t, kBlock> x{};
  for (std::size_t b = 0; b < full; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) x[i] ^= data[b * kBlock + i];
    cipher.encrypt_block(x);
  }

  // Final block: complete -> XOR K1; partial/empty -> 10* pad, XOR K2.
  std::array<std::uint8_t, kBlock> last{};
  const std::size_t tail = n - full * kBlock;
  if (n != 0 && tail == kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i)
      last[i] = static_cast<std::uint8_t>(data[full * kBlock + i] ^ k1[i]);
  } else {
    for (std::size_t i = 0; i < tail; ++i) last[i] = data[full * kBlock + i];
    last[tail] = 0x80;
    for (std::size_t i = 0; i < kBlock; ++i)
      last[i] = static_cast<std::uint8_t>(last[i] ^ k2[i]);
  }

  for (std::size_t i = 0; i < kBlock; ++i) x[i] ^= last[i];
  cipher.encrypt_block(x);
  // `last` carries a subkey XOR; the subkeys themselves come next.
  util::secure_wipe(last);
  util::secure_wipe(k1);
  util::secure_wipe(k2);
  return x;
}

std::vector<std::uint8_t> kdf_cmac(
    std::span<const std::uint8_t> key,
    const std::string& label, std::span<const std::uint8_t> context,
    std::size_t length) {
  if (length == 0 || length > 255 * kBlock)
    throw std::invalid_argument("kdf_cmac: length out of range");
  const std::size_t blocks = (length + kBlock - 1) / kBlock;

  std::vector<std::uint8_t> out;
  out.reserve(blocks * kBlock);
  for (std::size_t i = 1; i <= blocks; ++i) {
    util::ByteWriter w;
    w.u8(static_cast<std::uint8_t>(i));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
    w.u8(0x00);
    w.bytes(context);
    w.u16(static_cast<std::uint16_t>(8 * length));
    auto block = aes_cmac(key, w.data());  // medsen: secret
    out.insert(out.end(), block.begin(), block.end());
    util::secure_wipe(block);
  }
  out.resize(length);
  return out;
}

std::vector<std::uint8_t> diversify_device_key(
    std::span<const std::uint8_t> master_key,
    std::uint64_t device_id, std::uint32_t key_epoch) {
  util::ByteWriter context;
  context.u64(device_id);
  context.u32(key_epoch);
  return kdf_cmac(master_key, "medsen-div", context.data(),
                  Aes128::kKeySize);
}

std::vector<std::uint8_t> derive_session_mac_key(
    std::span<const std::uint8_t> device_key,
    std::span<const std::uint8_t> rnd_a,
    std::span<const std::uint8_t> rnd_b) {
  if (rnd_a.size() != kBlock || rnd_b.size() != kBlock)
    throw std::invalid_argument("derive_session_mac_key: 16-byte nonces");
  util::ByteWriter context;
  context.bytes(rnd_a);
  context.bytes(rnd_b);
  return kdf_cmac(device_key, "medsen-ses-mac", context.data(), 32);
}

CmacTag session_proof(
    std::span<const std::uint8_t> device_key,
    std::span<const std::uint8_t> rnd_a,
    std::span<const std::uint8_t> rnd_b) {
  if (rnd_a.size() != kBlock || rnd_b.size() != kBlock)
    throw std::invalid_argument("session_proof: 16-byte nonces");
  util::ByteWriter data;
  data.bytes(rnd_b);
  data.bytes(rnd_a);
  return aes_cmac(device_key, data.data());
}

}  // namespace medsen::crypto
