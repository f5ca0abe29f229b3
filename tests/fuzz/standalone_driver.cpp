// Standalone driver for the fuzz targets: used when the toolchain has
// no libFuzzer (gcc). Two modes, combinable in one invocation:
//
//   fuzz_x CORPUS_DIR...            replay every file (regression mode)
//   fuzz_x --smoke-seconds N --seed S CORPUS_DIR...
//                                   additionally run a seeded mutational
//                                   fuzz over the corpus for ~N seconds
//
// The mutation engine is deliberately simple (bit/byte flips, truncate,
// extend, splice, interesting-value stamps) but seeded, so a failing
// iteration can be reproduced with --seed/--max-iters. A crash or an
// unexpected exception type aborts with a nonzero exit and the
// offending input is written to ./fuzz-crash-<target>.bin.

#include "fuzz_target.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

namespace {

constexpr std::size_t kMaxInputBytes = 1 << 20;

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump_crash(const std::vector<std::uint8_t>& input) {
  std::ofstream out("fuzz-crash.bin", std::ios::binary);
  out.write(reinterpret_cast<const char*>(input.data()),
            static_cast<std::streamsize>(input.size()));
  std::cerr << "offending input written to fuzz-crash.bin ("
            << input.size() << " bytes)\n";
}

int run_one(const std::vector<std::uint8_t>& input) {
  if (input.size() > kMaxInputBytes) return 0;
  return LLVMFuzzerTestOneInput(input.data(), input.size());
}

/// One seeded mutation of `base`. Mutation count scales with how far
/// into the run we are, like libFuzzer's energy schedule (roughly).
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> base,
                                 std::mt19937_64& rng) {
  if (base.empty()) base.assign(1, 0);
  const unsigned rounds = 1 + static_cast<unsigned>(rng() % 8);
  for (unsigned r = 0; r < rounds; ++r) {
    switch (rng() % 6) {
      case 0: {  // flip one bit
        const std::size_t i = rng() % base.size();
        base[i] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      }
      case 1: {  // overwrite a byte
        base[rng() % base.size()] = static_cast<std::uint8_t>(rng());
        break;
      }
      case 2: {  // truncate
        base.resize(rng() % (base.size() + 1));
        if (base.empty()) base.push_back(0);
        break;
      }
      case 3: {  // extend with random bytes
        const std::size_t n = 1 + rng() % 64;
        for (std::size_t i = 0; i < n && base.size() < kMaxInputBytes; ++i)
          base.push_back(static_cast<std::uint8_t>(rng()));
        break;
      }
      case 4: {  // stamp an interesting 32-bit value at a random offset
        static constexpr std::uint32_t kInteresting[] = {
            0x00000000u, 0x00000001u, 0x0000007Fu, 0x000000FFu,
            0x00007FFFu, 0x0000FFFFu, 0x7FFFFFFFu, 0x80000000u,
            0xFFFFFFFEu, 0xFFFFFFFFu};
        if (base.size() >= 4) {
          const std::uint32_t v =
              kInteresting[rng() % (sizeof(kInteresting) /
                                    sizeof(kInteresting[0]))];
          std::memcpy(&base[rng() % (base.size() - 3)], &v, 4);
        }
        break;
      }
      default: {  // duplicate a slice (splice-with-self)
        const std::size_t from = rng() % base.size();
        const std::size_t len =
            std::min<std::size_t>(1 + rng() % 32, base.size() - from);
        const std::size_t to = rng() % base.size();
        std::vector<std::uint8_t> slice(base.begin() +
                                            static_cast<long>(from),
                                        base.begin() +
                                            static_cast<long>(from + len));
        base.insert(base.begin() + static_cast<long>(to), slice.begin(),
                    slice.end());
        if (base.size() > kMaxInputBytes) base.resize(kMaxInputBytes);
        break;
      }
    }
  }
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  double smoke_seconds = 0.0;
  std::uint64_t seed = 0x6D656473656E21ULL;  // "medsen!"
  std::uint64_t max_iters = 0;               // 0 = bounded by time only
  std::vector<std::filesystem::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke-seconds" && i + 1 < argc) {
      smoke_seconds = std::stod(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--max-iters" && i + 1 < argc) {
      max_iters = std::stoull(argv[++i]);
    } else {
      inputs.emplace_back(arg);
    }
  }

  // Phase 1: replay the corpus (and any explicit reproducer files).
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const auto& path : inputs) {
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry :
           std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file())
          corpus.push_back(read_file(entry.path()));
      }
    } else if (std::filesystem::is_regular_file(path)) {
      corpus.push_back(read_file(path));
    } else {
      std::cerr << "no such corpus input: " << path << "\n";
      return 2;
    }
  }
  if (corpus.empty()) {
    std::cerr << "usage: " << argv[0]
              << " [--smoke-seconds N] [--seed S] [--max-iters N] "
                 "CORPUS...\n";
    return 2;
  }

  std::size_t replayed = 0;
  for (const auto& input : corpus) {
    try {
      run_one(input);
      ++replayed;
    } catch (const std::exception& e) {
      std::cerr << "corpus replay failed: " << e.what() << "\n";
      dump_crash(input);
      return 1;
    }
  }
  std::printf("replayed %zu corpus inputs\n", replayed);

  // Phase 2: seeded mutational smoke fuzz.
  if (smoke_seconds > 0.0 || max_iters > 0) {
    std::mt19937_64 rng(seed);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(smoke_seconds));
    std::uint64_t iters = 0;
    while ((max_iters == 0 || iters < max_iters) &&
           (smoke_seconds <= 0.0 ||
            std::chrono::steady_clock::now() < deadline)) {
      const auto input = mutate(corpus[rng() % corpus.size()], rng);
      try {
        run_one(input);
      } catch (const std::exception& e) {
        std::cerr << "smoke fuzz failure at iteration " << iters
                  << " (seed " << seed << "): " << e.what() << "\n";
        dump_crash(input);
        return 1;
      }
      ++iters;
    }
    std::printf("smoke fuzz ran %llu iterations, no findings\n",
                static_cast<unsigned long long>(iters));
  }
  return 0;
}
