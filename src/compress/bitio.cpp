#include "compress/bitio.h"

namespace medsen::compress {

std::vector<std::uint8_t> BitWriter::finish() {
  for (; acc_bits_ > 0; acc_bits_ = acc_bits_ > 8 ? acc_bits_ - 8 : 0) {
    buf_.push_back(static_cast<std::uint8_t>(acc_));
    acc_ >>= 8;
  }
  acc_ = 0;
  return std::move(buf_);
}

}  // namespace medsen::compress
