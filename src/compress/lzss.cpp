#include "compress/lzss.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace medsen::compress {

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `limit`; eight
/// bytes per step.
inline std::size_t common_prefix(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    const std::uint64_t diff = load_u64(a + len) ^ load_u64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little)
        return len + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
      else
        return len + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

struct Match {
  std::size_t length = 0;
  std::size_t distance = 0;
};

class MatchFinder {
 public:
  MatchFinder(std::span<const std::uint8_t> data, unsigned max_chain)
      : data_(data),
        max_chain_(max_chain),
        head_(kHashSize, -1),
        prev_(kWindowSize, -1) {}

  void insert(std::size_t pos) {
    if (pos + kMinMatch > data_.size()) return;
    const std::uint32_t h = hash3(data_.data() + pos);
    prev_[pos % kWindowSize] = head_[h];
    head_[h] = static_cast<std::int32_t>(pos);
  }

  /// The first candidate on `pos`'s hash chain with the longest match
  /// longer than `at_least` bytes, or length 0 if none is longer. The
  /// first-longest candidate does not depend on `at_least`, so a
  /// thresholded search returns what the full search would whenever it
  /// returns a match at all.
  Match find(std::size_t pos, std::size_t at_least) const {
    Match best;
    if (pos + kMinMatch > data_.size()) return best;
    const std::size_t limit = std::min(kMaxMatch, data_.size() - pos);
    std::size_t best_len = std::max(at_least, kMinMatch - 1);
    if (best_len >= limit) return best;
    const std::uint8_t* const here = data_.data() + pos;
    std::int32_t candidate = head_[hash3(here)];
    for (unsigned chain = 0; candidate >= 0 && chain < max_chain_; ++chain) {
      const auto cand_pos = static_cast<std::size_t>(candidate);
      if (pos - cand_pos > kWindowSize) break;
      const std::uint8_t* const there = data_.data() + cand_pos;
      // Only a candidate that also matches at byte best_len can beat the
      // best so far.
      if (there[best_len] == here[best_len]) {
        const std::size_t len = common_prefix(there, here, limit);
        if (len > best_len) {
          best_len = len;
          best = {len, pos - cand_pos};
          if (len == limit) break;
        }
      }
      candidate = prev_[cand_pos % kWindowSize];
    }
    return best;
  }

 private:
  std::span<const std::uint8_t> data_;
  unsigned max_chain_;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> prev_;
};

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
  tokens.reserve(data.size() / 3);

  MatchFinder finder(data, config.max_chain);
  // The lazy look-ahead's match for the next position, found with the
  // same chains the next iteration would search, so it is reused as is.
  Match ahead;
  bool have_ahead = false;

  std::size_t pos = 0;
  while (pos < data.size()) {
    const Match match = have_ahead ? ahead : finder.find(pos, 0);
    have_ahead = false;
    if (config.lazy && match.length >= kMinMatch &&
        match.length < kMaxMatch && pos + 1 < data.size()) {
      // Peek one position ahead; emit a literal now if the next match is
      // strictly better (deflate's lazy matching).
      finder.insert(pos);
      ahead = finder.find(pos + 1, match.length + 1);
      if (ahead.length > 0) {
        tokens.push_back(literal_token(data[pos]));
        ++pos;
        have_ahead = true;
        continue;  // chains already hold pos
      }
      for (std::size_t i = 1; i < match.length; ++i) finder.insert(pos + i);
      tokens.push_back(match_token(match));
      pos += match.length;
      continue;
    }

    if (match.length >= kMinMatch) {
      for (std::size_t i = 0; i < match.length; ++i) finder.insert(pos + i);
      tokens.push_back(match_token(match));
      pos += match.length;
    } else {
      finder.insert(pos);
      tokens.push_back(literal_token(data[pos]));
      ++pos;
    }
  }
  return tokens;
}

}  // namespace medsen::compress
