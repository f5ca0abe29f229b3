#include "cloud/server.h"

#include "compress/codec.h"
#include "session_fixture.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

namespace medsen::cloud {
namespace {

using test_support::command;
using test_support::make_server;
using test_support::open_session;

constexpr std::uint64_t kDevice = 1;

util::MultiChannelSeries dip_series(std::size_t dips) {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  const std::size_t n = 4500 + dips * 450;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    double v = 1.0;
    for (std::size_t d = 0; d < dips; ++d) {
      const double z = (t - (5.0 + static_cast<double>(d))) / 0.008;
      v *= 1.0 - 0.01 * std::exp(-0.5 * z * z);
    }
    // A grain of quantized (ADC-like) noise so the quality gate's
    // stuck-ADC detector sees a live signal while the samples stay
    // compressible.
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

// A flat-lined acquisition pinned outside the plausible range: the gate
// flags it as saturated (the first check that fires).
util::MultiChannelSeries saturated_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 2.5));
  return series;
}

// In-range but stuck at a constant value: a dead ADC, not clipping.
util::MultiChannelSeries dropout_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  series.channels.emplace_back(450.0, std::vector<double>(5000, 1.0));
  return series;
}

// A live signal whose baseline wanders beyond the drift budget.
util::MultiChannelSeries drifting_series() {
  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 5000; ++i) {
    double v = 0.9 + 0.45 * static_cast<double>(i) / 5000.0;
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));
  return series;
}

/// A session-plane upload; `counter` pins the command counter (to
/// resend on purpose), otherwise the next one is taken.
net::Envelope upload_of(const util::MultiChannelSeries& series,
                        core::SessionCrypto& crypto,
                        std::optional<std::uint32_t> counter = {}) {
  net::SignalUploadPayload payload;
  payload.compressed = false;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(series);
  return command(crypto, net::MessageType::kSignalUpload, payload.serialize(),
                 counter);
}

net::Envelope auth_of(const util::MultiChannelSeries& series,
                      core::SessionCrypto& crypto, double volume_ul) {
  net::AuthPassPayload pass;
  pass.upload.compressed = false;
  pass.upload.sample_rate_hz = 450.0;
  pass.upload.data = net::serialize_series(series);
  pass.volume_ul = volume_ul;
  return command(crypto, net::MessageType::kAuthPass, pass.serialize());
}

net::ErrorPayload expect_error(const net::Envelope& response,
                               net::ErrorCode code) {
  EXPECT_EQ(response.type, net::MessageType::kError);
  const auto error = net::ErrorPayload::deserialize(response.payload);
  EXPECT_EQ(error.code, code) << "detail: " << error.detail;
  return error;
}

TEST(CloudServer, HandleUploadReturnsReport) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice, 5);
  const auto response = server.handle(upload_of(dip_series(3), crypto));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(response.session_id, 5u);
  EXPECT_EQ(response.device_id, kDevice);
  EXPECT_EQ(response.counter, 1u);
  EXPECT_TRUE(net::verify_envelope(response, crypto.session_mac_key()));
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 3u);
}

TEST(CloudServer, UnknownDeviceGetsError) {
  auto server = make_server();
  server.rotate_master_key(test_support::kEpoch, test_support::master_key());
  // Never enrolled: the handshake is refused before MAC verification
  // (the server derives no key to check against), and the error is
  // unsigned — the server holds no credential for the unknown sender.
  core::SessionCrypto stranger(kDevice, test_support::device_key(kDevice),
                               test_support::kEpoch, 1);
  const auto response = server.handle(stranger.make_challenge(1));
  const auto error =
      expect_error(response, net::ErrorCode::kUnknownDevice);
  EXPECT_NE(error.detail.find("not provisioned"), std::string::npos);
  EXPECT_TRUE(net::verify_envelope(response, {}));
}

TEST(CloudServer, BadMacGetsError) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  auto upload = upload_of(dip_series(1), crypto);
  upload.payload[0] ^= 0xFF;
  const auto response = server.handle(upload);
  expect_error(response, net::ErrorCode::kBadMac);
  EXPECT_TRUE(net::verify_envelope(response, crypto.session_mac_key()));
}

TEST(CloudServer, WrongDeviceKeyGetsBadMacError) {
  auto server = make_server();
  test_support::enroll(server, kDevice);
  test_support::enroll(server, 2);
  // Device 2 handshaking with device 1's key: the derived key wins.
  core::SessionCrypto impostor(2, test_support::device_key(kDevice),
                               test_support::kEpoch, 1);
  expect_error(server.handle(impostor.make_challenge(1)),
               net::ErrorCode::kBadMac);
}

TEST(CloudServer, UnroutableTypeGetsMalformedError) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  // A MAC-valid command of a type handle() has no case for.
  const auto error = expect_error(
      server.handle(command(crypto, net::MessageType::kProgress, {})),
      net::ErrorCode::kMalformed);
  EXPECT_EQ(error.detail, "no handler for message type 4");
}

TEST(CloudServer, UndecodablePayloadGetsMalformedError) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  // A correctly MAC'd envelope whose payload is garbage: the decoder
  // throw must be converted at the dispatch boundary, not escape.
  const auto envelope =
      command(crypto, net::MessageType::kSignalUpload, {0xDE, 0xAD});
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, TruncatedPayloadGetsMalformedError) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = net::serialize_series(dip_series(1));
  auto bytes = payload.serialize();
  bytes.resize(bytes.size() / 2);  // cut mid-payload, then re-MAC
  const auto envelope =
      command(crypto, net::MessageType::kSignalUpload, std::move(bytes));
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, TrailingPayloadBytesGetMalformedError) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = net::serialize_series(dip_series(1));
  auto bytes = payload.serialize();
  bytes.push_back(0x00);  // strict decoders refuse appended garbage
  const auto envelope =
      command(crypto, net::MessageType::kSignalUpload, std::move(bytes));
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, BitFlippedPayloadNeverEscapesAsException) {
  // Re-MAC a bit-flipped payload (a hostile relay could do the same with
  // a stolen key): whatever the decoder makes of it, the service
  // boundary must answer with an envelope, not throw.
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  net::SignalUploadPayload payload;
  payload.sample_rate_hz = 450.0;
  payload.data = net::serialize_series(dip_series(1));
  const auto bytes = payload.serialize();
  for (std::size_t bit = 0; bit < 64; ++bit) {
    auto corrupted = bytes;
    corrupted[(bit * 131) % corrupted.size()] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const auto envelope = command(crypto, net::MessageType::kSignalUpload,
                                  std::move(corrupted));
    net::Envelope response;
    EXPECT_NO_THROW(response = server.handle(envelope)) << "bit " << bit;
  }
}

TEST(CloudServer, HostileSeriesCountGetsMalformedError) {
  // A payload declaring 2^32-1 channels must be shot down by the decoder
  // bounds check and surface as kMalformed — not as an OOM.
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  net::SignalUploadPayload payload;
  payload.data = {0xFF, 0xFF, 0xFF, 0xFF};
  const auto envelope =
      command(crypto, net::MessageType::kSignalUpload, payload.serialize());
  expect_error(server.handle(envelope), net::ErrorCode::kMalformed);
}

TEST(CloudServer, CompressedUploadAccepted) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto series = dip_series(2);
  net::SignalUploadPayload payload;
  payload.compressed = true;
  payload.sample_rate_hz = 450.0;
  payload.data = compress::compress(net::serialize_series(series));
  const auto upload =
      command(crypto, net::MessageType::kSignalUpload, payload.serialize());
  const auto response = server.handle(upload);
  const auto report = core::PeakReport::deserialize(response.payload);
  EXPECT_EQ(report.reference_peak_count(), 2u);
}

TEST(CloudServer, QualityRejectionsCarryDistinctReasons) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto saturated =
      expect_error(server.handle(upload_of(saturated_series(), crypto)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(saturated.subcode,
            static_cast<std::uint8_t>(QualityReason::kSaturated));
  const auto dropout =
      expect_error(server.handle(upload_of(dropout_series(), crypto)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(dropout.subcode,
            static_cast<std::uint8_t>(QualityReason::kDropout));
  const auto drift =
      expect_error(server.handle(upload_of(drifting_series(), crypto)),
                   net::ErrorCode::kQualityRejected);
  EXPECT_EQ(drift.subcode,
            static_cast<std::uint8_t>(QualityReason::kDrift));
  // Three distinct structured reasons reached the client.
  EXPECT_NE(saturated.subcode, dropout.subcode);
  EXPECT_NE(dropout.subcode, drift.subcode);
  EXPECT_EQ(server.stats().errors_returned, 3u);
}

TEST(CloudServer, QualityGateTogglable) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  expect_error(server.handle(upload_of(saturated_series(), crypto)),
               net::ErrorCode::kQualityRejected);
  server.set_quality_gate(false);
  const auto response = server.handle(upload_of(saturated_series(), crypto));
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
}

TEST(CloudServer, DuplicateUploadServedFromCacheNotReanalyzed) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto handshakes = server.requests_processed();
  const auto upload = upload_of(dip_series(3), crypto);
  const auto first = server.handle(upload);
  EXPECT_EQ(server.requests_processed(), handshakes + 1);

  // The reliable transport re-uploads when the response is lost; the
  // replay must return the identical envelope without a second analysis.
  const auto second = server.handle(upload);
  EXPECT_EQ(server.requests_processed(), handshakes + 1);
  EXPECT_EQ(server.replays_served(), 1u);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_TRUE(crypto::digest_equal(second.mac, first.mac));
}

TEST(CloudServer, SessionReplayWithDifferentPayloadRejected) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto handshakes = server.requests_processed();
  const auto first = upload_of(dip_series(3), crypto);
  (void)server.handle(first);
  // Same session and counter, different acquisition: a protocol
  // violation, not a transport retry.
  expect_error(server.handle(upload_of(dip_series(2), crypto, first.counter)),
               net::ErrorCode::kSessionConflict);
  EXPECT_EQ(server.requests_processed(), handshakes + 1);
}

TEST(CloudServer, DuplicateAuthServedFromCache) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto handshakes = server.requests_processed();
  const auto upload = auth_of(dip_series(2), crypto, 1.0);
  const auto first = server.handle(upload);
  const auto second = server.handle(upload);
  EXPECT_EQ(first.type, net::MessageType::kAuthDecision);
  EXPECT_EQ(server.requests_processed(), handshakes + 1);
  EXPECT_EQ(server.replays_served(), 1u);
  EXPECT_EQ(second.payload, first.payload);
}

TEST(CloudServer, RejectedUploadIsNotCached) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto handshakes = server.requests_processed();
  const auto upload = upload_of(saturated_series(), crypto);
  expect_error(server.handle(upload), net::ErrorCode::kQualityRejected);
  EXPECT_EQ(server.requests_processed(), handshakes);
  // A retry after the gate is lifted reprocesses instead of replaying
  // the failure (a rejected command does not burn its counter).
  server.set_quality_gate(false);
  const auto response = server.handle(upload);
  EXPECT_EQ(response.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(server.requests_processed(), handshakes + 1);
  EXPECT_EQ(server.replays_served(), 0u);
}

TEST(CloudServer, AdmissionLimitShedsWithOverloadedError) {
  auto server = make_server({/*quality_gate=*/true, /*max_inflight=*/2});
  auto crypto = open_session(server, kDevice);
  // Fill the admission gate from the outside so the shed is
  // deterministic, no timing games needed.
  auto slot1 = server.admission().try_enter();
  auto slot2 = server.admission().try_enter();
  ASSERT_TRUE(slot1.admitted());
  ASSERT_TRUE(slot2.admitted());

  const auto response = server.handle(upload_of(dip_series(1), crypto));
  expect_error(response, net::ErrorCode::kOverloaded);
  // Shed before key resolution: signed with the long-term key.
  EXPECT_TRUE(net::verify_envelope(response, crypto.device_key()));
  EXPECT_EQ(server.stats().requests_shed, 1u);

  slot1.release();
  const auto retried = server.handle(upload_of(dip_series(1), crypto));
  EXPECT_EQ(retried.type, net::MessageType::kAnalysisResult);
}

TEST(CloudServer, MultiTenantSessionsAreIsolated) {
  auto server = make_server();
  // The same session id on two devices must not collide in the cache.
  auto crypto_a = open_session(server, 1, 7);
  auto crypto_b = open_session(server, 2, 7);
  const auto handshakes = server.requests_processed();
  const auto a = server.handle(upload_of(dip_series(1), crypto_a));
  const auto b = server.handle(upload_of(dip_series(2), crypto_b));
  EXPECT_EQ(a.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(b.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(server.requests_processed(), handshakes + 2);
  EXPECT_EQ(server.replays_served(), 0u);
  EXPECT_EQ(core::PeakReport::deserialize(a.payload).reference_peak_count(),
            1u);
  EXPECT_EQ(core::PeakReport::deserialize(b.payload).reference_peak_count(),
            2u);
}

TEST(CloudServer, DeviceRevocationTakesEffect) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  EXPECT_EQ(server.handle(upload_of(dip_series(1), crypto)).type,
            net::MessageType::kAnalysisResult);
  server.devices().revoke(kDevice);
  expect_error(server.handle(upload_of(dip_series(1), crypto)),
               net::ErrorCode::kRevoked);
}

// The TSan regression for the old racy `last_quality_` member: one
// server, several client threads, a mix of accepted and quality-rejected
// uploads in flight at once. Before the refactor the quality report was
// written to an unsynchronized member on every upload.
TEST(CloudServer, ConcurrentMixedUploadsAreRaceFree) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  const auto handshakes = server.requests_processed();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  // SessionCrypto is single-threaded state: stamp every command up front
  // and let the threads race only inside the server.
  std::vector<std::vector<net::Envelope>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      batches[t].push_back((t + i) % 2 == 0
                               ? upload_of(saturated_series(), crypto)
                               : upload_of(dip_series(1), crypto));
  std::vector<std::thread> workers;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const auto& upload : batches[t]) {
        const auto response = server.handle(upload);
        if (response.type == net::MessageType::kAnalysisResult)
          accepted.fetch_add(1);
        else if (net::ErrorPayload::deserialize(response.payload).code ==
                 net::ErrorCode::kQualityRejected)
          rejected.fetch_add(1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(server.requests_processed(),
            handshakes + static_cast<std::uint64_t>(accepted.load()));
  EXPECT_EQ(server.stats().errors_returned,
            static_cast<std::uint64_t>(rejected.load()));
}

TEST(CloudServer, RecordStoreAccessible) {
  auto server = make_server();
  auth::CytoCode code;
  code.levels = {1, 1};
  server.store_result(code, {1, {0xCC}});
  EXPECT_EQ(server.records().record_count(), 1u);
}

TEST(CloudServer, AuthDecisionForUnknownUserRejected) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  // No enrollments: any census must fail authentication.
  const auto response = server.handle(auth_of(dip_series(2), crypto, 1.0));
  EXPECT_EQ(response.type, net::MessageType::kAuthDecision);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_FALSE(decision.authenticated);
}

TEST(CloudServer, StatsAccumulateProcessingTime) {
  auto server = make_server();
  auto crypto = open_session(server, kDevice);
  (void)server.handle(upload_of(dip_series(1), crypto));
  (void)server.handle(upload_of(dip_series(2), crypto));
  const auto stats = server.stats();
  EXPECT_EQ(stats.requests_processed, 3u);  // the handshake + 2 uploads
  EXPECT_EQ(stats.handshakes_completed, 1u);
  EXPECT_GT(stats.processing_time_s, 0.0);
}

}  // namespace
}  // namespace medsen::cloud
