// Wire-format pin for the MSZ1 container. The digests below were recorded
// from the plain bytewise codec that reference_codec.h keeps; every build
// must emit exactly these bytes, and compress() must also agree with that
// reference on the same inputs.
//
// The simulator-derived inputs also pin the digest of the input itself,
// so a change in the seeded acquisition shows up as such instead of as a
// codec regression.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "net/messages.h"
#include "reference_codec.h"
#include "sim/acquisition.h"
#include "sim/electrode_array.h"
#include "util/csv.h"

namespace medsen::compress {
namespace {

std::string digest_of(std::span<const std::uint8_t> bytes) {
  return crypto::to_hex(crypto::sha256(bytes));
}

sim::AcquisitionResult quiet_acquisition(std::vector<double> carriers,
                                         sim::SampleSpec sample,
                                         double duration_s,
                                         std::uint64_t seed) {
  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig config;
  config.carriers_hz = std::move(carriers);
  config.noise_sigma = 5e-5;
  config.drift.slow_amplitude = 0.002;
  config.drift.random_walk_sigma = 1e-6;
  sim::ControlSegment segment;
  segment.active_mask = 0b101;
  const std::vector<sim::ControlSegment> control = {segment};
  return sim::acquire(sample, channel, sim::standard_design(9), config,
                      control, duration_s, seed);
}

/// The relay's real payload: serialize_series of a 60 s acquisition on
/// the four assay carriers.
std::vector<std::uint8_t> series_60s_4_carriers() {
  sim::SampleSpec cells;
  cells.components = {{sim::ParticleType::kBloodCell, 300.0}};
  return net::serialize_series(
      quiet_acquisition({5.0e5, 8.0e5, 2.0e6, 2.5e6}, cells, 60.0, 41)
          .signals);
}

/// A small fleet-style upload: 2 s on one carrier.
std::vector<std::uint8_t> series_2s_1_carrier() {
  sim::SampleSpec beads;
  beads.components = {{sim::ParticleType::kBead780, 150.0}};
  return net::serialize_series(
      quiet_acquisition({5.0e5}, beads, 2.0, 42).signals);
}

/// bench_compression's first row: the 60 s eight-carrier CSV dump.
std::vector<std::uint8_t> bench_compression_csv() {
  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 300.0},
                       {sim::ParticleType::kBead358, 150.0}};
  const std::string csv = util::to_csv(
      quiet_acquisition({5.0e5, 8.0e5, 1.0e6, 1.2e6, 1.4e6, 2.0e6, 3.0e6,
                         4.0e6},
                        sample, 60.0, 99)
          .signals);
  return {csv.begin(), csv.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  crypto::ChaChaRng rng(seed);
  std::vector<std::uint8_t> out(n);
  rng.fill(out);
  return out;
}

/// Runs of one byte whose lengths straddle the 258-byte match cap.
std::vector<std::uint8_t> runs_across_max_match() {
  std::vector<std::uint8_t> out;
  std::uint8_t value = 1;
  for (std::size_t run : {257u, 258u, 259u, 260u, 515u, 516u, 517u, 775u}) {
    out.insert(out.end(), run, value);
    out.push_back(0xEE);  // separator
    ++value;
  }
  return out;
}

/// A random block repeated at distances just under, at and over the
/// 32 KiB window, so matches are found or missed exactly at its edge.
std::vector<std::uint8_t> repeats_across_window() {
  const auto block = random_bytes(600, 11);
  std::vector<std::uint8_t> out;
  for (std::size_t gap : {32768u - 600u - 1u, 32768u - 600u, 32768u - 599u}) {
    out.insert(out.end(), block.begin(), block.end());
    const auto filler = random_bytes(gap, 12 + gap);
    out.insert(out.end(), filler.begin(), filler.end());
  }
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

struct GoldenCase {
  const char* name;
  std::vector<std::uint8_t> (*make)();
  const char* input_sha256;  ///< nullptr: input is exact by construction
  const char* packed_sha256;
};

const GoldenCase kGolden[] = {
    {"series_60s_4_carriers", series_60s_4_carriers,
     "8d29a76e33d754bce8a1784030e652dbe981ca97a65221bf6d28e6f43421284a",
     "2b1a2760a3be656f2883fc16f351dc62b34207c5d0fef32f4bf4830f07134566"},
    {"series_2s_1_carrier", series_2s_1_carrier,
     "cbf1ae2f60d825eaad4e8ddf2714a2109c58dc9d36caf92ac9c934aaa84ea458",
     "23c05bc9b20392ec78d7a6c7c0339fde8366096130110aef452053e74998e74a"},
    {"bench_compression_csv", bench_compression_csv,
     "6d08b0fca823dcffae33202c98b27ae7b27519d997534a4081491e5ad2a4be27",
     "1290d5d059d2b8d4299c7c174c14eb5e1f48d6b643bcf2e72cff6ebe46086708"},
    {"all_zeros_100k", [] { return std::vector<std::uint8_t>(100000, 0); },
     nullptr,
     "f52299f39322247aa38cdce00b2242b223d5f800c8493302bb6f8b74fb4bfc5e"},
    {"random_64k", [] { return random_bytes(65536, 7); }, nullptr,
     "4dd0fd692d1773795d06a83964859ddd2a943ea8f5bd8356d19fab560f898a95"},
    {"runs_across_max_match", runs_across_max_match, nullptr,
     "d8fde8cf0ec06b861b0aa6dc3c4c9f77fb2f8c0161a238a37d44f561aa39ed42"},
    {"repeats_across_window", repeats_across_window, nullptr,
     "df04b681246af137d61a7c15bf9a7ac4f76fe0f7902e5a1e844c5cffe4eeea71"},
    {"empty", [] { return std::vector<std::uint8_t>{}; }, nullptr,
     "907b96ad6823f8e42db4e655dfa9b81d8c7db8f1aabcda444fa66b2a16f2df2b"},
};

// gtest names each case "<name>  # GetParam() = <printed value>", and ctest
// keeps that comment in the test name. Without this printer gtest dumps the
// struct's bytes, i.e. its pointers, so the name changed with every
// address-space layout; the pinned digest prefix is stable and short.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << std::string(c.packed_sha256, 16);
}

class GoldenWireFormat : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenWireFormat, CompressOutputIsPinned) {
  const GoldenCase& c = GetParam();
  const auto input = c.make();
  if (c.input_sha256 != nullptr) {
    ASSERT_EQ(digest_of(input), c.input_sha256)
        << c.name << ": the seeded input itself changed";
  }
  const auto packed = compress(input);
  EXPECT_EQ(digest_of(packed), c.packed_sha256) << c.name;
  EXPECT_EQ(packed, reference::compress(input)) << c.name;
  EXPECT_EQ(decompress(packed), input) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Msz1, GoldenWireFormat, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace medsen::compress
