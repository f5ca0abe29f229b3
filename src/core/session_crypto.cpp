#include "core/session_crypto.h"

#include <stdexcept>
#include <utility>

#include "crypto/cmac.h"
#include "crypto/constant_time.h"

namespace medsen::core {

namespace {
// Seed-lane tag: the session-crypto RNG draws from its own ChaCha
// stream so the acquisition/key-schedule RNG sequence is untouched by
// the handshake (golden traces stay bit-identical with crypto on/off).
constexpr std::uint64_t kSessionCryptoSeedTag = 0x5e55'10c4'ab1e'd00dull;
}  // namespace

SessionCrypto::SessionCrypto(std::uint64_t device_id,
                             std::vector<std::uint8_t> device_key,
                             std::uint32_t key_epoch,
                             std::uint64_t entropy_seed)
    : device_id_(device_id),
      device_key_(std::move(device_key)),  // adopts: wipes caller's vector
      key_epoch_(key_epoch),
      rng_(entropy_seed ^ kSessionCryptoSeedTag) {
  if (device_key_.size() != crypto::Aes128::kKeySize)
    throw std::invalid_argument("SessionCrypto: device key must be 16 bytes");
}

net::Envelope SessionCrypto::make_challenge(std::uint64_t session_id) {
  invalidate();
  session_id_ = session_id;

  net::AuthChallengePayload payload;
  payload.key_epoch = key_epoch_;
  rng_.fill(payload.challenge);
  pending_rnd_a_.assign(payload.challenge);

  return net::make_envelope(net::MessageType::kAuthChallenge, session_id_,
                            device_id_, payload.serialize(), device_key_);
}

bool SessionCrypto::complete(const net::Envelope& response) {
  if (pending_rnd_a_.empty()) return false;  // no handshake in flight
  if (response.type != net::MessageType::kAuthResponse ||
      response.session_id != session_id_ ||
      response.device_id != device_id_ || response.counter != 0)
    return false;
  if (!net::verify_envelope(response, device_key_)) return false;

  net::AuthResponsePayload payload;
  try {
    payload = net::AuthResponsePayload::deserialize(response.payload);
  } catch (const std::exception&) {
    return false;
  }

  const auto expected = crypto::session_proof(device_key_, pending_rnd_a_,
                                              payload.challenge);
  if (!crypto::constant_time_equal(expected, payload.proof)) return false;

  session_mac_key_.adopt(crypto::derive_session_mac_key(
      device_key_, pending_rnd_a_, payload.challenge));
  pending_rnd_a_.wipe();
  counter_ = 0;  // first command stamps 1
  return true;
}

void SessionCrypto::invalidate() {
  session_mac_key_.wipe();
  pending_rnd_a_.wipe();
  counter_ = 0;
}

}  // namespace medsen::core
