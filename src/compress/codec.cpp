#include "compress/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "compress/crc32.h"
#include "compress/huffman.h"
#include "util/serialize.h"

namespace medsen::compress {

namespace {

constexpr std::uint32_t kMagic = 0x4D535A31;  // "MSZ1"

// Deflate-style length slots for codes 257..285.
constexpr std::uint16_t kLenBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                        1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                        4, 4, 4, 4, 5, 5, 5, 5, 0};

// Deflate-style distance slots for codes 0..29.
constexpr std::uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kLitLenSymbols = 286;  // 0..255 lit, 256 EOB, 257..285
constexpr std::size_t kDistSymbols = 30;
constexpr std::uint16_t kEndOfBlock = 256;
constexpr std::size_t kHeaderBytes = 16;

// Length slot of every match length kMinMatch..kMaxMatch.
constexpr std::array<std::uint8_t, kMaxMatch + 1> kLengthSlot = [] {
  std::array<std::uint8_t, kMaxMatch + 1> slots{};
  unsigned s = 0;
  for (unsigned len = kMinMatch; len <= kMaxMatch; ++len) {
    while (s + 1 < 29 && len >= kLenBase[s + 1]) ++s;
    slots[len] = static_cast<std::uint8_t>(s);
  }
  return slots;
}();

// Distance slot of 1..kWindowSize: slots 2k and 2k+1 split each power of
// two above 4, so the slot follows from the top two bits of dist - 1.
inline unsigned distance_slot(unsigned dist) {
  const unsigned d = dist - 1;
  if (d < 4) return d;
  const unsigned top = static_cast<unsigned>(std::bit_width(d)) - 1;
  return 2 * top + ((d >> (top - 1)) & 1u);
}

}  // namespace

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> data,
                                   const LzssConfig& config) {
  const std::vector<Token> tokens = lzss_compress(data, config);

  // Symbol statistics.
  std::vector<std::uint64_t> lit_freq(kLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(kDistSymbols, 0);
  for (const Token& t : tokens) {
    if (t.is_match) {
      ++lit_freq[257 + kLengthSlot[t.length]];
      ++dist_freq[distance_slot(t.distance)];
    } else {
      ++lit_freq[t.literal];
    }
  }
  ++lit_freq[kEndOfBlock];

  const auto lit_lengths = huffman_code_lengths(lit_freq);
  const auto dist_lengths = huffman_code_lengths(dist_freq);
  const HuffmanEncoder lit_enc(build_codes(lit_lengths), lit_freq);
  const HuffmanEncoder dist_enc(build_codes(dist_lengths), dist_freq);

  BitWriter bits;
  bits.reserve(data.size() + data.size() / 8 + 256);
  // Code-length tables, 4 bits each (kMaxCodeLength = 15 fits).
  for (auto len : lit_lengths) bits.put(len, 4);
  for (auto len : dist_lengths) bits.put(len, 4);
  // Token stream.
  for (const Token& t : tokens) {
    if (t.is_match) {
      const unsigned ls = kLengthSlot[t.length];
      lit_enc.encode(bits, static_cast<std::uint16_t>(257 + ls));
      bits.put(t.length - kLenBase[ls], kLenExtra[ls]);
      const unsigned ds = distance_slot(t.distance);
      dist_enc.encode(bits, static_cast<std::uint16_t>(ds));
      bits.put(t.distance - kDistBase[ds], kDistExtra[ds]);
    } else {
      lit_enc.encode(bits, t.literal);
    }
  }
  lit_enc.encode(bits, kEndOfBlock);
  const auto payload = bits.finish();

  util::ByteWriter out;
  out.u32(kMagic);
  out.u64(data.size());
  out.u32(crc32(data));
  out.bytes(payload);
  return out.take();
}

namespace {

/// Decoded bytes, grown by doubling as bytes arrive and never past the
/// header's original size, so a hostile size field cannot force a large
/// allocation ahead of the data.
class Output {
 public:
  explicit Output(std::uint64_t original_size) : limit_(original_size) {}

  std::size_t size() const { return size_; }

  /// Make room for `n` more bytes and return where they go; throws
  /// std::runtime_error if they would pass the original size.
  std::uint8_t* append(std::size_t n) {
    if (n > limit_ - size_)
      throw std::runtime_error("decompress: size mismatch");
    if (size_ + n > buf_.size()) grow(size_ + n);
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  std::vector<std::uint8_t> take() {
    buf_.resize(size_);
    return std::move(buf_);
  }

 private:
  void grow(std::size_t needed) {
    const std::size_t target = static_cast<std::size_t>(std::min<std::uint64_t>(
        limit_, std::max<std::size_t>(needed, 2 * buf_.size())));
    buf_.reserve(target);
    buf_.resize(target);
  }

  std::uint64_t limit_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> buf_;
};

/// Copy the `len` bytes that start `dist` bytes before `dst` to `dst`.
/// When dist < len the regions overlap and the copy must run forward, so
/// the last `dist` bytes repeat (a run).
inline void copy_match(std::uint8_t* dst, std::size_t dist, std::size_t len) {
  const std::uint8_t* src = dst - dist;
  if (dist >= len) {
    std::memcpy(dst, src, len);
  } else if (dist == 1) {
    std::memset(dst, *src, len);
  } else {
    for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

std::vector<std::uint8_t> decompress_impl(
    std::span<const std::uint8_t> packed) {
  util::ByteReader header(packed);
  if (header.u32() != kMagic)
    throw std::runtime_error("decompress: bad magic");
  const std::uint64_t original_size = header.u64();
  const std::uint32_t expected_crc = header.u32();

  BitReader bits(packed.subspan(kHeaderBytes));
  std::array<std::uint8_t, kLitLenSymbols> lit_lengths{};
  for (auto& len : lit_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  std::array<std::uint8_t, kDistSymbols> dist_lengths{};
  for (auto& len : dist_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);

  Output out(original_size);
  for (;;) {
    const std::uint16_t sym = lit_dec.decode(bits);
    if (sym < 256) {
      *out.append(1) = static_cast<std::uint8_t>(sym);
      continue;
    }
    if (sym == kEndOfBlock) break;
    const unsigned ls = sym - 257u;  // < 29: the alphabet ends at 285
    const unsigned len = kLenBase[ls] + bits.get(kLenExtra[ls]);
    const std::uint16_t dsym = dist_dec.decode(bits);  // < kDistSymbols
    const unsigned dist = kDistBase[dsym] + bits.get(kDistExtra[dsym]);
    if (dist > out.size())
      throw std::runtime_error("decompress: invalid back-reference");
    copy_match(out.append(len), dist, len);
  }

  if (out.size() != original_size)
    throw std::runtime_error("decompress: size mismatch");
  std::vector<std::uint8_t> decoded = out.take();
  if (crc32(decoded) != expected_crc)
    throw std::runtime_error("decompress: CRC mismatch");
  // Strictness: the container must end where the bit stream ends (plus
  // byte-boundary padding) — appended garbage is rejected, not ignored.
  const std::size_t stream_bytes = (bits.bits_consumed() + 7) / 8;
  if (packed.size() - kHeaderBytes > stream_bytes)
    throw std::runtime_error("decompress: trailing bytes");
  return decoded;
}

}  // namespace

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> packed) {
  try {
    return decompress_impl(packed);
  } catch (const std::out_of_range&) {
    // Truncated bit or byte streams surface as the same corruption error
    // class as CRC failures, so callers handle one exception type.
    throw std::runtime_error("decompress: truncated stream");
  }
}

std::vector<std::uint8_t> compress_string(const std::string& text) {
  return compress(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string decompress_string(std::span<const std::uint8_t> packed) {
  const auto bytes = decompress(packed);
  return std::string(bytes.begin(), bytes.end());
}

double compression_ratio(std::size_t original_size,
                         std::size_t compressed_size) {
  if (compressed_size == 0) return 0.0;
  return static_cast<double>(original_size) /
         static_cast<double>(compressed_size);
}

}  // namespace medsen::compress
