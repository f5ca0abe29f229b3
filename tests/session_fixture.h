#pragma once
// Shared session-plane setup for tests that talk to a CloudServer. The
// server stores no per-device key: it holds an epoch master and the
// enrolled id, and the device is personalized with the key diversified
// from that master. open_session() runs the whole ceremony — master
// epoch, enrollment, AuthChallenge/AuthResponse — and returns the
// device's armed SessionCrypto; command() stamps envelopes on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cloud/server.h"
#include "core/controller.h"
#include "core/session_crypto.h"
#include "crypto/cmac.h"
#include "net/messages.h"

namespace medsen::test_support {

inline constexpr std::uint32_t kEpoch = 1;

/// A CloudServer with default analysis, alphabet and verifier settings.
inline cloud::CloudServer make_server(cloud::ServiceConfig service = {}) {
  return cloud::CloudServer(cloud::AnalysisConfig{}, auth::CytoAlphabet{},
                            auth::ParticleClassifier::train({}),
                            auth::VerifierConfig{}, nullptr, service);
}

/// The fleet master every fixture-enrolled device derives from.
inline std::vector<std::uint8_t> master_key() {
  return std::vector<std::uint8_t>(16, 0x5a);
}

/// The device's long-term key, as personalization burns it in.
inline std::vector<std::uint8_t> device_key(std::uint64_t device) {
  return crypto::diversify_device_key(master_key(), device, kEpoch);
}

/// Install the fixture master (once: a rotation drops every live
/// session) and enroll `device`.
inline void enroll(cloud::CloudServer& server, std::uint64_t device) {
  if (!server.devices().has_epoch(kEpoch))
    server.rotate_master_key(kEpoch, master_key());
  server.enroll_device(device);
}

/// Enroll `device` and arm `controller` with its diversified key; the
/// caller negotiates the session (e.g. PhoneRelay::establish_session).
inline core::SessionCrypto& arm(cloud::CloudServer& server,
                                core::Controller& controller,
                                std::uint64_t device) {
  enroll(server, device);
  controller.enable_session_crypto(device, device_key(device), kEpoch);
  return *controller.session_crypto();
}

/// Run the device side of one handshake directly against handle().
inline bool handshake(core::SessionCrypto& crypto, std::uint64_t session_id,
                      cloud::CloudServer& server) {
  return crypto.complete(server.handle(crypto.make_challenge(session_id)));
}

/// Enroll `device` and negotiate `session_id`: the returned crypto is
/// active (the calling test fails if the server refused the handshake).
inline core::SessionCrypto open_session(cloud::CloudServer& server,
                                        std::uint64_t device,
                                        std::uint64_t session_id = 1) {
  enroll(server, device);
  core::SessionCrypto crypto(device, device_key(device), kEpoch,
                             /*entropy_seed=*/0x5e55 ^ device);
  EXPECT_TRUE(handshake(crypto, session_id, server))
      << "handshake refused for device " << device;
  return crypto;
}

/// A command envelope on `crypto`'s session: MAC'd with the session key
/// and stamped with the next counter, or with `counter` when given (to
/// replay or reorder on purpose).
inline net::Envelope command(core::SessionCrypto& crypto,
                             net::MessageType type,
                             std::vector<std::uint8_t> payload,
                             std::optional<std::uint32_t> counter = {}) {
  const std::uint32_t stamp = counter ? *counter : crypto.next_counter();
  return net::make_envelope(type, crypto.session_id(), crypto.device_id(),
                            std::move(payload), crypto.session_mac_key(),
                            stamp);
}

}  // namespace medsen::test_support
