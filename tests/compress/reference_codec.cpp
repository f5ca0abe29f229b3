#include "reference_codec.h"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>

#include "util/serialize.h"

namespace medsen::compress::reference {

// --- bit I/O ------------------------------------------------------------

void BitWriter::put(std::uint32_t bits, unsigned count) {
  if (count > 32) throw std::invalid_argument("BitWriter: count > 32");
  const std::uint64_t mask =
      count == 32 ? 0xFFFFFFFFull : ((1ull << count) - 1ull);
  acc_ |= (static_cast<std::uint64_t>(bits) & mask) << acc_bits_;
  acc_bits_ += count;
  total_bits_ += count;
  while (acc_bits_ >= 8) {
    buf_.push_back(static_cast<std::uint8_t>(acc_));
    acc_ >>= 8;
    acc_bits_ -= 8;
  }
}

std::vector<std::uint8_t> BitWriter::finish() {
  if (acc_bits_ > 0) {
    buf_.push_back(static_cast<std::uint8_t>(acc_));
    acc_ = 0;
    acc_bits_ = 0;
  }
  return std::move(buf_);
}

std::uint32_t BitReader::get(unsigned count) {
  if (count > 32) throw std::invalid_argument("BitReader: count > 32");
  std::uint32_t out = 0;
  for (unsigned i = 0; i < count; ++i) {
    const std::size_t byte = pos_bits_ / 8;
    if (byte >= data_.size())
      throw std::out_of_range("BitReader: past end of stream");
    const unsigned bit_in_byte = pos_bits_ % 8;
    const std::uint32_t b = (data_[byte] >> bit_in_byte) & 1u;
    out |= b << i;
    ++pos_bits_;
  }
  return out;
}

// --- CRC-32 ---------------------------------------------------------------

namespace {
const std::array<std::uint32_t, 256>& crc_table() {
  static const auto t = [] {
    std::array<std::uint32_t, 256> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      out[i] = c;
    }
    return out;
  }();
  return t;
}
}  // namespace

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data)
    state = crc_table()[(state ^ b) & 0xFF] ^ (state >> 8);
  return state;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

// --- Huffman --------------------------------------------------------------

namespace {

struct Node {
  std::uint64_t freq;
  int left = -1;
  int right = -1;
  int symbol = -1;
};

void assign_depths(const std::vector<Node>& nodes, int idx, unsigned depth,
                   std::vector<std::uint8_t>& lengths) {
  const Node& n = nodes[static_cast<std::size_t>(idx)];
  if (n.symbol >= 0) {
    lengths[static_cast<std::size_t>(n.symbol)] =
        static_cast<std::uint8_t>(std::max(depth, 1u));
    return;
  }
  assign_depths(nodes, n.left, depth + 1, lengths);
  assign_depths(nodes, n.right, depth + 1, lengths);
}

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  std::vector<std::uint8_t> lengths(f.size(), 0);

  for (;;) {
    std::vector<Node> nodes;
    using HeapItem = std::pair<std::uint64_t, int>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    for (std::size_t s = 0; s < f.size(); ++s) {
      if (f[s] == 0) continue;
      nodes.push_back({f[s], -1, -1, static_cast<int>(s)});
      heap.emplace(f[s], static_cast<int>(nodes.size()) - 1);
    }
    if (nodes.empty()) return lengths;
    if (nodes.size() == 1) {
      lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
      return lengths;
    }
    while (heap.size() > 1) {
      const auto [fa, a] = heap.top();
      heap.pop();
      const auto [fb, b] = heap.top();
      heap.pop();
      nodes.push_back({fa + fb, a, b, -1});
      heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
    }
    std::fill(lengths.begin(), lengths.end(), 0);
    assign_depths(nodes, heap.top().second, 0, lengths);

    const unsigned max_len =
        *std::max_element(lengths.begin(), lengths.end());
    if (max_len <= kMaxCodeLength) return lengths;
    for (auto& v : f)
      if (v > 0) v = (v + 1) / 2;
  }
}

HuffmanCode build_codes(std::span<const std::uint8_t> lengths) {
  HuffmanCode out;
  out.lengths.assign(lengths.begin(), lengths.end());
  out.codes.assign(lengths.size(), 0);

  std::vector<std::uint32_t> length_count(kMaxCodeLength + 1, 0);
  for (auto len : lengths)
    if (len > 0) ++length_count[len];

  std::vector<std::uint32_t> next_code(kMaxCodeLength + 2, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    std::uint32_t c = next_code[len]++;
    std::uint32_t rev = 0;
    for (unsigned i = 0; i < len; ++i) {
      rev = (rev << 1) | (c & 1);
      c >>= 1;
    }
    out.codes[s] = static_cast<std::uint16_t>(rev);
  }
  return out;
}

void HuffmanEncoder::encode(BitWriter& out, std::uint16_t symbol) const {
  const unsigned len = code_.lengths.at(symbol);
  if (len == 0)
    throw std::runtime_error("HuffmanEncoder: symbol has no code");
  out.put(code_.codes[symbol], len);
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  std::vector<std::uint32_t> length_count(kMaxCodeLength + 1, 0);
  for (auto len : lengths) {
    if (len > kMaxCodeLength)
      throw std::invalid_argument("HuffmanDecoder: length too long");
    if (len > 0) {
      ++length_count[len];
      max_len_ = std::max<unsigned>(max_len_, len);
    }
  }
  first_code_.assign(kMaxCodeLength + 2, 0);
  first_index_.assign(kMaxCodeLength + 2, 0);
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += length_count[len];
  }
  for (unsigned len = 1; len <= kMaxCodeLength; ++len)
    for (std::size_t s = 0; s < lengths.size(); ++s)
      if (lengths[s] == len) symbols_.push_back(static_cast<std::uint16_t>(s));
}

std::uint16_t HuffmanDecoder::decode(BitReader& in) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | in.bit();
    const std::uint32_t count =
        (len < kMaxCodeLength ? first_index_[len + 1]
                              : static_cast<std::uint32_t>(symbols_.size())) -
        first_index_[len];
    if (count > 0 && code >= first_code_[len] &&
        code < first_code_[len] + count) {
      return symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  throw std::runtime_error("HuffmanDecoder: invalid code");
}

// --- LZSS -----------------------------------------------------------------

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

struct Match {
  std::size_t length = 0;
  std::size_t distance = 0;
};

Match find_match(std::span<const std::uint8_t> data, std::size_t pos,
                 const std::vector<std::int32_t>& head,
                 const std::vector<std::int32_t>& prev, unsigned max_chain) {
  Match best;
  if (pos + kMinMatch > data.size()) return best;
  const std::size_t limit = std::min(kMaxMatch, data.size() - pos);
  std::int32_t candidate = head[hash3(data.data() + pos)];
  unsigned chain = 0;
  while (candidate >= 0 && chain < max_chain) {
    const auto cand_pos = static_cast<std::size_t>(candidate);
    if (pos - cand_pos > kWindowSize) break;
    std::size_t len = 0;
    while (len < limit && data[cand_pos + len] == data[pos + len]) ++len;
    if (len >= kMinMatch && len > best.length) {
      best.length = len;
      best.distance = pos - cand_pos;
      if (len == limit) break;
    }
    candidate = prev[cand_pos % kWindowSize];
    ++chain;
  }
  return best;
}

Token literal_token(std::uint8_t byte) {
  Token t;
  t.literal = byte;
  return t;
}

Token match_token(const Match& m) {
  Token t;
  t.is_match = true;
  t.length = static_cast<std::uint16_t>(m.length);
  t.distance = static_cast<std::uint16_t>(m.distance);
  return t;
}

}  // namespace

std::vector<Token> lzss_compress(std::span<const std::uint8_t> data,
                                 const LzssConfig& config) {
  std::vector<Token> tokens;
  if (data.empty()) return tokens;

  std::vector<std::int32_t> head(kHashSize, -1);
  std::vector<std::int32_t> prev(kWindowSize, -1);

  auto insert = [&](std::size_t pos) {
    if (pos + kMinMatch > data.size()) return;
    const std::uint32_t h = hash3(data.data() + pos);
    prev[pos % kWindowSize] = head[h];
    head[h] = static_cast<std::int32_t>(pos);
  };

  std::size_t pos = 0;
  while (pos < data.size()) {
    const Match match = find_match(data, pos, head, prev, config.max_chain);
    if (config.lazy && match.length >= kMinMatch &&
        match.length < kMaxMatch && pos + 1 < data.size()) {
      insert(pos);
      const Match next =
          find_match(data, pos + 1, head, prev, config.max_chain);
      if (next.length > match.length + 1) {
        tokens.push_back(literal_token(data[pos]));
        ++pos;
        continue;
      }
      for (std::size_t i = 1; i < match.length; ++i) insert(pos + i);
      tokens.push_back(match_token(match));
      pos += match.length;
      continue;
    }

    if (match.length >= kMinMatch) {
      for (std::size_t i = 0; i < match.length; ++i) insert(pos + i);
      tokens.push_back(match_token(match));
      pos += match.length;
    } else {
      insert(pos);
      tokens.push_back(literal_token(data[pos]));
      ++pos;
    }
  }
  return tokens;
}

std::vector<std::uint8_t> lzss_decompress(std::span<const Token> tokens) {
  std::vector<std::uint8_t> out;
  for (const Token& t : tokens) {
    if (!t.is_match) {
      out.push_back(t.literal);
      continue;
    }
    if (t.distance == 0 || t.distance > out.size())
      throw std::runtime_error("lzss_decompress: invalid distance");
    if (t.length < kMinMatch || t.length > kMaxMatch)
      throw std::runtime_error("lzss_decompress: invalid length");
    const std::size_t start = out.size() - t.distance;
    for (std::size_t i = 0; i < t.length; ++i) out.push_back(out[start + i]);
  }
  return out;
}

// --- container --------------------------------------------------------------

namespace {

constexpr std::uint32_t kMagic = 0x4D535A31;  // "MSZ1"

constexpr std::uint16_t kLenBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLenExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                        1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                        4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kLitLenSymbols = 286;
constexpr std::size_t kDistSymbols = 30;
constexpr std::uint16_t kEndOfBlock = 256;

unsigned length_slot(unsigned len) {
  for (unsigned s = 28;; --s) {
    if (len >= kLenBase[s]) return s;
    if (s == 0) break;
  }
  throw std::logic_error("length_slot: length below minimum");
}

unsigned distance_slot(unsigned dist) {
  for (unsigned s = 29;; --s) {
    if (dist >= kDistBase[s]) return s;
    if (s == 0) break;
  }
  throw std::logic_error("distance_slot: distance below minimum");
}

std::vector<std::uint8_t> decompress_impl(
    std::span<const std::uint8_t> packed) {
  util::ByteReader header(packed);
  if (header.u32() != kMagic)
    throw std::runtime_error("decompress: bad magic");
  const std::uint64_t original_size = header.u64();
  const std::uint32_t expected_crc = header.u32();

  BitReader bits(packed.subspan(16));
  std::vector<std::uint8_t> lit_lengths(kLitLenSymbols);
  for (auto& len : lit_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  std::vector<std::uint8_t> dist_lengths(kDistSymbols);
  for (auto& len : dist_lengths) len = static_cast<std::uint8_t>(bits.get(4));
  const HuffmanDecoder lit_dec(lit_lengths);
  const HuffmanDecoder dist_dec(dist_lengths);

  constexpr std::size_t kMaxUpfrontReserve = std::size_t{1} << 20;
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(original_size, kMaxUpfrontReserve)));
  for (;;) {
    if (out.size() > original_size)
      throw std::runtime_error("decompress: size mismatch");
    const std::uint16_t sym = lit_dec.decode(bits);
    if (sym == kEndOfBlock) break;
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    const unsigned ls = sym - 257u;
    if (ls >= 29) throw std::runtime_error("decompress: bad length symbol");
    const unsigned len = kLenBase[ls] + bits.get(kLenExtra[ls]);
    const std::uint16_t dsym = dist_dec.decode(bits);
    if (dsym >= kDistSymbols)
      throw std::runtime_error("decompress: bad distance symbol");
    const unsigned dist = kDistBase[dsym] + bits.get(kDistExtra[dsym]);
    if (dist == 0 || dist > out.size())
      throw std::runtime_error("decompress: invalid back-reference");
    const std::size_t start = out.size() - dist;
    for (unsigned i = 0; i < len; ++i) out.push_back(out[start + i]);
  }

  if (out.size() != original_size)
    throw std::runtime_error("decompress: size mismatch");
  if (crc32(out) != expected_crc)
    throw std::runtime_error("decompress: CRC mismatch");
  const std::size_t stream_bytes = (bits.bits_consumed() + 7) / 8;
  if (packed.size() - 16 > stream_bytes)
    throw std::runtime_error("decompress: trailing bytes");
  return out;
}

}  // namespace

std::vector<std::uint8_t> pack(std::span<const Token> tokens,
                               std::span<const std::uint8_t> lit_lengths,
                               std::span<const std::uint8_t> dist_lengths,
                               std::span<const std::uint8_t> original) {
  const HuffmanEncoder lit_enc(build_codes(lit_lengths));
  const HuffmanEncoder dist_enc(build_codes(dist_lengths));

  BitWriter bits;
  for (auto len : lit_lengths) bits.put(len, 4);
  for (auto len : dist_lengths) bits.put(len, 4);
  for (const Token& t : tokens) {
    if (t.is_match) {
      const unsigned ls = length_slot(t.length);
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
  out.u64(original.size());
  out.u32(crc32(original));
  out.bytes(payload);
  return out.take();
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> data,
                                   const LzssConfig& config) {
  const std::vector<Token> tokens = reference::lzss_compress(data, config);

  std::vector<std::uint64_t> lit_freq(kLitLenSymbols, 0);
  std::vector<std::uint64_t> dist_freq(kDistSymbols, 0);
  for (const Token& t : tokens) {
    if (t.is_match) {
      ++lit_freq[257 + length_slot(t.length)];
      ++dist_freq[distance_slot(t.distance)];
    } else {
      ++lit_freq[t.literal];
    }
  }
  ++lit_freq[kEndOfBlock];

  return pack(tokens, huffman_code_lengths(lit_freq),
              huffman_code_lengths(dist_freq), data);
}

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> packed) {
  try {
    return decompress_impl(packed);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("decompress: truncated stream");
  }
}

}  // namespace medsen::compress::reference
