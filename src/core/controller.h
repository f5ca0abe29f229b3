#pragma once
// The sensor micro-controller — MedSen's entire trusted computing base
// (paper Section II, threat model). It generates the key schedule from its
// entropy source, programs the sensor (multiplexer/gains/pump), and later
// decodes the cloud's peak report into the diagnosis. The key never leaves
// this object: the public API only exposes the hardware control trace and
// the decoded outcome, mirroring the Raspberry Pi daemon's isolation in
// the prototype.

#include <cstdint>
#include <memory>
#include <optional>

#include "core/decryptor.h"
#include "core/diagnostic.h"
#include "core/key.h"
#include "core/peak_report.h"
#include "core/recovery.h"
#include "core/session_crypto.h"
#include "net/messages.h"
#include "sim/electrode_array.h"

namespace medsen::core {

class Controller {
 public:
  Controller(KeyParams key_params, sim::ElectrodeArrayDesign design,
             DiagnosticProfile profile, std::uint64_t entropy_seed,
             RetryPolicy retry_policy = {});

  /// Begin a diagnostic session of `duration_s` seconds: generates a fresh
  /// key schedule internally and returns the hardware control trace the
  /// sensor executes. Overwrites any previous session and starts a fresh
  /// recovery loop (suspect electrodes get another chance; quarantined
  /// ones stay out, and the flow derate resets).
  std::vector<sim::ControlSegment> begin_session(double duration_s);

  /// Begin the next attempt of the *current* recovery loop: a fresh key
  /// schedule with every suspect/quarantined electrode masked out of
  /// E(t) and the cumulative flow derate applied. Returns the control
  /// trace exactly like begin_session().
  std::vector<sim::ControlSegment> begin_retry_session(double duration_s);

  /// Map a failed attempt's error verdict to a recovery plan. Strikes
  /// implicated electrodes in the health ledger and records the flow
  /// derate the next begin_retry_session() will apply. Only the
  /// controller can do this mapping: the per-channel reasons name
  /// anonymous carrier channels, and inverting them to electrodes takes
  /// the secret E(t).
  RecoveryPlan plan_recovery(const net::ErrorPayload& error);

  /// Begin a plaintext (encryption-off) session, used when submitting the
  /// bare cyto-code for server-side authentication.
  std::vector<sim::ControlSegment> begin_plaintext_session(double duration_s);

  /// Volume pumped during the active session (uL), integrating the
  /// key-driven flow profile. Needed to turn counts into concentrations.
  [[nodiscard]] double session_volume_ul() const;

  /// Decode the cloud's report with the session key and diagnose.
  Diagnosis conclude(const PeakReport& report);

  /// Best-effort conclusion once the retry budget is exhausted: same
  /// decode path, but the diagnosis carries the policy's degraded
  /// confidence instead of throwing the session away.
  Diagnosis conclude_degraded(const PeakReport& report);

  /// Decrypted peak detail for the active session (auth verification and
  /// richer analyses).
  DecryptionResult decrypt(const PeakReport& report) const;

  /// Key material size of the active session in bits (telemetry only; the
  /// bits themselves are not exposed).
  [[nodiscard]] std::uint64_t session_key_bits() const;

  /// The schedule itself — accessible for white-box tests and the sensor
  /// binding, marked loudly so misuse is visible in call sites.
  [[nodiscard]] const KeySchedule& session_key_schedule_for_testing() const;

  [[nodiscard]] const KeyParams& key_params() const { return key_params_; }
  [[nodiscard]] const sim::ElectrodeArrayDesign& design() const {
    return design_;
  }
  [[nodiscard]] const DiagnosticProfile& profile() const { return profile_; }
  [[nodiscard]] bool session_active() const { return schedule_.has_value(); }

  [[nodiscard]] const RetryPolicy& retry_policy() const {
    return retry_policy_;
  }
  /// Persistent per-electrode health (strike counters, quarantine).
  [[nodiscard]] const ElectrodeHealthLedger& health() const {
    return ledger_;
  }
  /// Cumulative flow derate the next retry will apply (1.0 = nominal).
  [[nodiscard]] double flow_scale() const { return flow_scale_; }

  /// Arm the EV2-style transport-session plane: the controller holds
  /// the device's long-term (diversified) key and will negotiate
  /// derived session keys with the cloud via the phone relay. The
  /// session-crypto RNG draws from its own lane of the entropy seed, so
  /// arming it never perturbs the acquisition key schedule.
  void enable_session_crypto(std::uint64_t device_id,
                             std::vector<std::uint8_t> device_key,
                             std::uint32_t key_epoch);
  /// The session-crypto engine, or nullptr when not armed.
  [[nodiscard]] SessionCrypto* session_crypto() {
    return session_crypto_.get();
  }

 private:
  /// Apply exclusion mask + flow derate to the freshly generated
  /// schedule (no-ops for a healthy ledger at nominal flow, keeping
  /// fault-free sessions bit-identical to the pre-recovery behaviour).
  void apply_recovery_state();
  [[nodiscard]] sim::ElectrodeMask session_active_union() const;

  KeyParams key_params_;
  sim::ElectrodeArrayDesign design_;
  DiagnosticProfile profile_;
  crypto::ChaChaRng rng_;
  std::optional<KeySchedule> schedule_;
  double session_duration_s_ = 0.0;
  RetryPolicy retry_policy_;
  ElectrodeHealthLedger ledger_;
  double flow_scale_ = 1.0;
  std::uint64_t entropy_seed_;
  std::unique_ptr<SessionCrypto> session_crypto_;
};

}  // namespace medsen::core
