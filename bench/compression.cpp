// Section VII-B data-transfer experiment: a 3 h acquisition produced
// ~600 MB of CSV measurements which the phone's zip stage reduced to
// ~240 MB (2.5x). Scaled down here: a multi-minute 8-carrier acquisition
// rendered to CSV and pushed through the LZSS+Huffman codec. The shape to
// match is the ~2-3x ratio on CSV sensor dumps.
//
// Next to the CSV rows it times the codec on the relay's real payload —
// net::serialize_series of a 60 s acquisition on the four assay carriers,
// what the phone compresses before every upload — and writes compress,
// decompress and CRC-32 throughput to BENCH_compression.json.
//
//   bench_compression [--smoke] [--out PATH]
//   --smoke: CI preset — only the 60 s CSV row, plus the relay payload.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compress/codec.h"
#include "compress/crc32.h"
#include "net/messages.h"
#include "util/csv.h"

using namespace medsen;

namespace {

/// Median wall time in seconds of `reps` calls of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double mb_per_s(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1.0e6 / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_compression [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  bench::header("Compression (600 MB -> 240 MB experiment, scaled)",
                "zip compression of CSV sensor dumps achieves ~2.5x");
  bench::JsonCounters json("compression");

  auto design = sim::standard_design(9);
  const auto channel = bench::default_channel();
  // Full 8-carrier configuration like the prototype.
  auto config = bench::quiet_acquisition(
      {5.0e5, 8.0e5, 1.0e6, 1.2e6, 1.4e6, 2.0e6, 3.0e6, 4.0e6});
  const auto control = bench::fixed_control(0b101);

  sim::SampleSpec sample;
  sample.components = {{sim::ParticleType::kBloodCell, 300.0},
                       {sim::ParticleType::kBead358, 150.0}};

  std::printf("duration_s,csv_bytes,compressed_bytes,ratio,comp_MB_per_s\n");
  const std::vector<double> durations =
      smoke ? std::vector<double>{60.0} : std::vector<double>{60.0, 180.0, 420.0};
  for (double duration : durations) {
    const auto result = sim::acquire(sample, channel, design, config,
                                     control, duration, 99);
    const std::string csv = util::to_csv(result.signals);
    const auto start = std::chrono::steady_clock::now();
    const auto packed = compress::compress_string(csv);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    // Round-trip sanity.
    if (compress::decompress_string(packed) != csv) {
      std::printf("ROUND TRIP FAILED\n");
      return 1;
    }
    const double ratio = compress::compression_ratio(csv.size(), packed.size());
    std::printf("%.0f,%zu,%zu,%.2f,%.1f\n", duration, csv.size(),
                packed.size(), ratio, mb_per_s(csv.size(), seconds));
    const std::string key = "csv" + std::to_string(static_cast<int>(duration)) + "s";
    json.set(key + ".ratio", ratio);
    json.set(key + ".compress_MBps", mb_per_s(csv.size(), seconds));
  }
  std::printf("paper: 600 MB -> 240 MB is a 2.50x ratio\n");

  // The relay's payload: serialized doubles, four assay carriers, 60 s.
  sim::SampleSpec cells;
  cells.components = {{sim::ParticleType::kBloodCell, 300.0}};
  const auto relay = net::serialize_series(
      sim::acquire(cells, channel, design,
                   bench::quiet_acquisition({5.0e5, 8.0e5, 2.0e6, 2.5e6}),
                   control, 60.0, 7)
          .signals);
  const auto packed = compress::compress(relay);
  if (compress::decompress(packed) != relay) {
    std::printf("ROUND TRIP FAILED (relay payload)\n");
    return 1;
  }
  const int reps = smoke ? 5 : 15;
  std::uint32_t crc_sink = 0;
  const double t_compress =
      median_seconds(reps, [&] { (void)compress::compress(relay); });
  const double t_decompress =
      median_seconds(reps, [&] { (void)compress::decompress(packed); });
  const double t_crc =
      median_seconds(reps, [&] { crc_sink ^= compress::crc32(relay); });
  std::printf(
      "relay payload: %zu bytes -> %zu (%.2fx); compress %.1f MB/s, "
      "decompress %.1f MB/s, crc32 %.0f MB/s (median of %d, crc %08x)\n",
      relay.size(), packed.size(),
      compress::compression_ratio(relay.size(), packed.size()),
      mb_per_s(relay.size(), t_compress), mb_per_s(relay.size(), t_decompress),
      mb_per_s(relay.size(), t_crc), reps, crc_sink);
  json.set_count("relay60s.bytes", relay.size());
  json.set("relay60s.ratio",
           compress::compression_ratio(relay.size(), packed.size()));
  json.set("relay60s.compress_MBps", mb_per_s(relay.size(), t_compress));
  json.set("relay60s.decompress_MBps", mb_per_s(relay.size(), t_decompress));
  json.set("relay60s.crc32_MBps", mb_per_s(relay.size(), t_crc));
  json.write(out_path);
  return 0;
}
