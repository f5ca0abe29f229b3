#include "compress/huffman.h"

#include <algorithm>
#include <array>
#include <queue>
#include <stdexcept>

namespace medsen::compress {

namespace {

struct Node {
  std::uint64_t freq;
  int left = -1;    // node index or -1
  int right = -1;
  int symbol = -1;  // leaf symbol or -1
};

/// Depth-first traversal assigning depths as code lengths.
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
    using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
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
    // Flatten the distribution and retry; halving frequencies (keeping
    // them >= 1) shortens the deepest paths.
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
    // Bit-reverse for LSB-first emission.
    std::uint32_t rev = 0;
    for (unsigned i = 0; i < len; ++i) {
      rev = (rev << 1) | (c & 1);
      c >>= 1;
    }
    out.codes[s] = static_cast<std::uint16_t>(rev);
  }
  return out;
}

HuffmanEncoder::HuffmanEncoder(HuffmanCode code,
                               std::span<const std::uint64_t> freqs)
    : code_(std::move(code)) {
  if (freqs.size() > code_.lengths.size())
    throw std::runtime_error("HuffmanEncoder: symbol has no code");
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (freqs[s] > 0 && code_.lengths[s] == 0)
      throw std::runtime_error("HuffmanEncoder: symbol has no code");
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  if (lengths.size() > kMaxSymbols)
    throw std::invalid_argument("HuffmanDecoder: alphabet too large");
  std::array<std::uint32_t, kMaxCodeLength + 1> length_count{};
  for (auto len : lengths) {
    if (len > kMaxCodeLength)
      throw std::invalid_argument("HuffmanDecoder: length too long");
    if (len > 0) {
      ++length_count[len];
      max_len_ = std::max<unsigned>(max_len_, len);
    }
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code + length_count[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += length_count[len];
  }
  first_index_[kMaxCodeLength + 1] = index;

  // Symbols sorted by (length, symbol value) — canonical order.
  std::array<std::uint32_t, kMaxCodeLength + 1> next = {};
  for (unsigned len = 1; len <= kMaxCodeLength; ++len)
    next[len] = first_index_[len];
  for (std::size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0)
      symbols_[next[lengths[s]]++] = static_cast<std::uint16_t>(s);

  // Fill the table longest code first, so where an over-subscribed table
  // gives a short code and a longer one the same prefix, the short code
  // (the one the canonical walk reaches first) overwrites.
  const unsigned table_max = std::min(max_len_, kTableBits);
  for (unsigned len = table_max; len >= 1; --len) {
    for (std::uint32_t i = first_index_[len]; i < first_index_[len + 1]; ++i) {
      const std::uint32_t canonical = first_code_[len] + (i - first_index_[len]);
      if (canonical >= (1u << len)) break;  // no len-bit prefix reads as it
      std::uint32_t reversed = 0;
      for (unsigned b = 0; b < len; ++b)
        reversed |= ((canonical >> b) & 1u) << (len - 1 - b);
      const auto entry =
          static_cast<std::uint16_t>((len << kLengthShift) | symbols_[i]);
      for (std::uint32_t slot = reversed; slot < table_.size();
           slot += 1u << len)
        table_[slot] = entry;
    }
  }
}

std::uint16_t HuffmanDecoder::decode_slow(BitReader& in) const {
  // The canonical walk over the (zero-padded) next kMaxCodeLength bits.
  const std::uint32_t bits = in.peek(kMaxCodeLength);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len_; ++len) {
    code = (code << 1) | ((bits >> (len - 1)) & 1u);
    const std::uint32_t count = first_index_[len + 1] - first_index_[len];
    if (code >= first_code_[len] && code - first_code_[len] < count) {
      in.skip(len);
      return symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  // A reader stepping bit by bit would have run off the stream before
  // reaching the invalid-code verdict.
  if (max_len_ > in.buffered())
    throw std::out_of_range("BitReader: past end of stream");
  throw std::runtime_error("HuffmanDecoder: invalid code");
}

}  // namespace medsen::compress
