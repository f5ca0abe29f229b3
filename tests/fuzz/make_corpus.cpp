// Seed-corpus generator. The checked-in corpora under
// tests/fuzz/corpus/<target>/ were produced by this tool; re-run it
// after a wire-format change and commit the result:
//
//   cmake --build build --target make_corpus
//   ./build/tests/fuzz/make_corpus tests/fuzz/corpus

#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "compress/codec.h"
#include "core/peak_report.h"
#include "net/frame.h"
#include "net/messages.h"
#include "reference_codec.h"

namespace {

void write(const std::filesystem::path& dir, const std::string& name,
           const std::vector<std::uint8_t>& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> ascii(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_corpus <corpus-root>\n";
    return 2;
  }
  const std::filesystem::path root = argv[1];
  const std::vector<std::uint8_t> key = {1, 2, 3, 4, 5, 6, 7, 8};

  // --- envelope -------------------------------------------------------
  using medsen::net::MessageType;
  medsen::net::SignalUploadPayload upload;
  upload.compressed = false;
  upload.sample_rate_hz = 450.0;
  upload.data = {1, 2, 3, 4, 5, 6, 7, 8};
  write(root / "envelope", "upload.bin",
        medsen::net::make_envelope(MessageType::kSignalUpload, 7, 1,
                                   upload.serialize(), key)
            .serialize());

  medsen::net::AuthPassPayload pass;
  pass.upload = upload;
  pass.volume_ul = 0.75;
  pass.duration_s = 420.0;
  write(root / "envelope", "auth_pass.bin",
        medsen::net::make_envelope(MessageType::kAuthPass, 8, 2,
                                   pass.serialize(), key)
            .serialize());

  medsen::net::ErrorPayload error;
  error.code = medsen::net::ErrorCode::kQualityRejected;
  error.subcode = 3;
  error.detail = "saturated";
  write(root / "envelope", "error.bin",
        medsen::net::make_envelope(MessageType::kError, 9, 3,
                                   error.serialize(), key)
            .serialize());

  medsen::net::AuthDecisionPayload decision;
  decision.authenticated = true;
  decision.user_id = "alice";
  decision.distance = 0.25;
  write(root / "envelope", "decision.bin",
        medsen::net::make_envelope(MessageType::kAuthDecision, 10, 4,
                                   decision.serialize(), key)
            .serialize());

  write(root / "envelope", "empty_payload.bin",
        medsen::net::make_envelope(MessageType::kProgress, 0, 0, {}, key)
            .serialize());

  medsen::net::AuthChallengePayload challenge;
  challenge.key_epoch = 1;
  for (std::size_t i = 0; i < challenge.challenge.size(); ++i)
    challenge.challenge[i] = static_cast<std::uint8_t>(0xA0 + i);
  write(root / "envelope", "auth_challenge.bin",
        medsen::net::make_envelope(MessageType::kAuthChallenge, 11, 5,
                                   challenge.serialize(), key)
            .serialize());

  medsen::net::AuthResponsePayload handshake_response;
  for (std::size_t i = 0; i < handshake_response.challenge.size(); ++i) {
    handshake_response.challenge[i] = static_cast<std::uint8_t>(0xB0 + i);
    handshake_response.proof[i] = static_cast<std::uint8_t>(0xC0 + i);
  }
  write(root / "envelope", "auth_response.bin",
        medsen::net::make_envelope(MessageType::kAuthResponse, 11, 5,
                                   handshake_response.serialize(), key)
            .serialize());

  // A session-plane command: nonzero counter, MAC-covered.
  write(root / "envelope", "counter_upload.bin",
        medsen::net::make_envelope(MessageType::kSignalUpload, 11, 5,
                                   upload.serialize(), key, /*counter=*/3)
            .serialize());

  // --- handshake ------------------------------------------------------
  // First corpus byte selects the decoder: even = challenge, odd =
  // response (matching fuzz_handshake.cpp).
  {
    std::vector<std::uint8_t> seed;
    seed.push_back(0);
    const auto chal_bytes = challenge.serialize();
    seed.insert(seed.end(), chal_bytes.begin(), chal_bytes.end());
    write(root / "handshake", "challenge.bin", seed);

    seed.clear();
    seed.push_back(1);
    const auto resp_bytes = handshake_response.serialize();
    seed.insert(seed.end(), resp_bytes.begin(), resp_bytes.end());
    write(root / "handshake", "response.bin", seed);

    // Strictness probes: truncated and trailing-byte variants.
    seed.clear();
    seed.push_back(0);
    seed.insert(seed.end(), chal_bytes.begin(), chal_bytes.end() - 1);
    write(root / "handshake", "challenge_truncated.bin", seed);

    seed.clear();
    seed.push_back(1);
    seed.insert(seed.end(), resp_bytes.begin(), resp_bytes.end());
    seed.push_back(0xFF);
    write(root / "handshake", "response_trailing.bin", seed);
  }

  // --- frame ----------------------------------------------------------
  write(root / "frame", "empty.bin", medsen::net::frame_encode({}));
  write(root / "frame", "short.bin",
        medsen::net::frame_encode(ascii("hello")));
  write(root / "frame", "envelope.bin",
        medsen::net::frame_encode(
            medsen::net::make_envelope(MessageType::kSignalUpload, 1, 1,
                                       upload.serialize(), key)
                .serialize()));

  // --- codec ----------------------------------------------------------
  write(root / "codec", "empty.bin", medsen::compress::compress({}));
  write(root / "codec", "text.bin",
        medsen::compress::compress_string(
            "time,ch0,ch1\n0.000,1.002,0.998\n0.002,1.001,0.999\n"));
  write(root / "codec", "single.bin", medsen::compress::compress(
                                          std::vector<std::uint8_t>{42}));
  std::vector<std::uint8_t> repetitive;
  for (int i = 0; i < 512; ++i)
    repetitive.push_back(static_cast<std::uint8_t>(i % 7));
  write(root / "codec", "repetitive.bin",
        medsen::compress::compress(repetitive));
  // Seeds for each decode path: codes longer than the decoder's lookup
  // table, up to the 15-bit maximum (literal i has an (i+1)-bit code, the
  // end-of-block code shares 15 bits with literal 14) ...
  {
    std::vector<std::uint8_t> lit_lengths(286, 0);
    for (std::uint8_t i = 0; i < 14; ++i) lit_lengths[i] = i + 1;
    lit_lengths[14] = 15;
    lit_lengths[256] = 15;
    const std::vector<std::uint8_t> dist_lengths(30, 0);
    const std::vector<std::uint8_t> bytes = {0, 1,  2,  3,  4,  5,  6, 7, 8,
                                             9, 10, 11, 12, 13, 14, 14, 13,
                                             12, 11, 10, 0};
    std::vector<medsen::compress::Token> tokens;
    for (std::uint8_t b : bytes) {
      medsen::compress::Token t;
      t.literal = b;
      tokens.push_back(t);
    }
    write(root / "codec", "long_codes_15bit.bin",
          medsen::compress::reference::pack(tokens, lit_lengths,
                                            dist_lengths, bytes));
  }
  // ... an empty distance table (no byte repeats, so no matches) ...
  std::vector<std::uint8_t> distinct;
  for (int i = 0; i < 48; ++i)
    distinct.push_back(static_cast<std::uint8_t>(i * 5));
  write(root / "codec", "literals_only.bin",
        medsen::compress::compress(distinct));
  // ... and single-symbol alphabets: one literal plus distance-1
  // back-references of the maximum length 258 (one distance code).
  write(root / "codec", "run_dist1_len258.bin",
        medsen::compress::compress(
            std::vector<std::uint8_t>(1 + 258 * 4, 'a')));

  // --- peak_report ----------------------------------------------------
  medsen::core::PeakReport report;
  medsen::core::ChannelPeaks ch;
  ch.carrier_hz = 5.0e5;
  ch.peaks = {{1.0, 0.01, 0.02, 450}, {2.0, 0.02, 0.03, 900}};
  report.channels.push_back(ch);
  ch.carrier_hz = 2.0e6;
  ch.peaks = {{1.5, 0.005, 0.02, 675}};
  report.channels.push_back(ch);
  write(root / "peak_report", "two_channels.bin", report.serialize());
  write(root / "peak_report", "empty.bin",
        medsen::core::PeakReport{}.serialize());

  std::cout << "corpora written under " << root << "\n";
  return 0;
}
