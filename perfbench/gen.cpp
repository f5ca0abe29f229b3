// perfbench_gen: the seeded input generator of the MedSen benchmark.
//
//   perfbench_gen --workload assay|fleet|ingest --seed N --out DIR [--tiny]
//
// Writes DIR/inputs.bin (payload pool with expected responses, assay
// acquisitions, per-client op scripts) and DIR/state/ (the initial state
// dir: master epoch, enrolled devices and users, pre-existing records),
// built through the durable layer with fsync off — enrollment time
// belongs to generation, not to the measured set-up. Expected responses
// come from a separate in-memory reference server with the same
// configuration. Same seed, same bytes.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "core/session_crypto.h"
#include "util/fileio.h"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out;
  bool tiny = false;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "perfbench_gen --workload assay|fleet|ingest --seed N "
               "--out DIR [--tiny]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed")
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--out") o.out = value();
    else if (arg == "--tiny") o.tiny = true;
    else usage();
  }
  if (o.out.empty() || (o.workload != "assay" && o.workload != "fleet" &&
                         o.workload != "ingest"))
    usage();
  return o;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

/// In-memory server with the measured configuration, used only to fix
/// the expected response of every generated payload.
class Reference {
 public:
  Reference(const Inputs& inputs, std::size_t users)
      : server_(make_server()),
        crypto_(kProbeDevice, device_key(inputs.master_key, kProbeDevice),
                kEpoch, inputs.seed) {
    server_->rotate_master_key(kEpoch, inputs.master_key);
    server_->enroll_device(kProbeDevice);
    for (std::size_t u = 0; u < users; ++u)
      server_->enroll_user(user_id(u), inputs.codes[u]);
    if (!crypto_.complete(server_->handle(crypto_.make_challenge(1))))
      throw std::runtime_error("reference handshake failed");
  }

  static std::string user_id(std::size_t u) {
    return "user-" + std::to_string(u);
  }

  ms::net::Envelope respond(bool auth, std::vector<std::uint8_t> payload) {
    return server_->handle(ms::net::make_envelope(
        auth ? ms::net::MessageType::kAuthPass
             : ms::net::MessageType::kSignalUpload,
        crypto_.session_id(), kProbeDevice, std::move(payload),
        crypto_.session_mac_key(), crypto_.next_counter()));
  }

 private:
  std::unique_ptr<ms::cloud::CloudServer> server_;
  ms::core::SessionCrypto crypto_;
};

/// Fix `entry`'s expected response. A refused payload (the quality gate
/// rejects some short dense acquisitions) stays in the pool: the measured
/// server must refuse it identically. Reported, never filtered out.
void expect(PoolEntry& entry, const ms::net::Envelope& response,
            const char* what) {
  entry.accepted = response.type != ms::net::MessageType::kError;
  entry.expected = response.payload;
  if (!entry.accepted)
    std::fprintf(stderr, "perfbench_gen: finding: %s refused: %s\n", what,
                 ms::net::ErrorPayload::deserialize(response.payload)
                     .detail.c_str());
}

constexpr std::size_t kUsers = 8;  ///< enrolled cyto-code users
constexpr std::size_t kWriterCodes = 24;  ///< codes ingest writers own
constexpr std::uint32_t kAssayClients = 2;
constexpr std::uint32_t kAssayUploads = 16;  ///< acquisitions per client
constexpr std::uint32_t kAssayAuths = 2;    ///< auth-pass users per client

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  namespace fs = std::filesystem;
  const fs::path out = options.out;
  fs::remove_all(out);
  fs::create_directories(out / "state");

  Rng rng{mix(options.seed, 0x5045524642ull)};
  Inputs inputs;
  inputs.workload = options.workload;
  inputs.seed = options.seed;
  inputs.tiny = options.tiny;
  inputs.storage_key = random_bytes(rng, 16);
  inputs.master_key = random_bytes(rng, 16);

  // Cyto-codes: the 24 non-empty codes of the default alphabet in seeded
  // order, then the empty code (index 24, the probe pass's record key).
  const ms::auth::CytoAlphabet alphabet;
  for (std::uint8_t a = 0; a < alphabet.levels(); ++a)
    for (std::uint8_t b = 0; b < alphabet.levels(); ++b)
      if (a != 0 || b != 0) inputs.codes.push_back({{a, b}});
  for (std::size_t i = inputs.codes.size(); i > 1; --i)
    std::swap(inputs.codes[i - 1], inputs.codes[rng.below(i)]);
  inputs.codes.push_back({{0, 0}});

  Reference reference(inputs, kUsers);
  const bool assay = options.workload == "assay";
  const bool fleet = options.workload == "fleet";
  const std::uint64_t fleet_devices = options.tiny ? 3000 : 100000;

  // --- Payload pool: small uploads (2 s, one carrier, each encrypted by
  // its own controller session) and small plaintext auth passes.
  // fleet keeps its pool small enough to stay cache-resident, so its
  // timings track the service path rather than neighbours' cache traffic;
  // ingest draws record sizes from a larger pool, so its bytes per write
  // vary little between seeds.
  const bool ingest = options.workload == "ingest";
  const std::size_t pool_uploads =
      assay ? 0 : options.tiny ? 8 : ingest ? 512 : 64;
  const std::size_t pool_auth = assay ? 0 : options.tiny ? 4 : ingest ? 64 : 16;
  std::vector<std::uint32_t> upload_ids, auth_ids;
  {
    const auto setup = sensor_setup({kSmallCarrierHz});
    ms::core::SensorEncryptor encryptor(setup.design, setup.channel,
                                        setup.acquisition);
    ms::sim::SampleSpec cells;
    cells.components = {{ms::sim::ParticleType::kBead780, 150.0}};
    for (std::size_t i = 0; i < pool_uploads + pool_auth; ++i) {
      PoolEntry entry;
      entry.auth = i >= pool_uploads;
      entry.controller_seed = mix(options.seed, 1000 + i);
      entry.duration_s = 2.0;
      ms::core::Controller controller(
          setup.key_params, setup.design,
          ms::core::DiagnosticProfile::cd4_staging(), entry.controller_seed);
      if (!entry.auth) {
        (void)controller.begin_session(entry.duration_s);
        const auto acq = encryptor.acquire(
            cells, controller.session_key_schedule_for_testing(),
            entry.duration_s, mix(options.seed, 2000 + i));
        entry.payload =
            relay_payload(ms::net::serialize_series(acq.signals)).serialize();
        expect(entry, reference.respond(false, entry.payload), "upload");
        upload_ids.push_back(static_cast<std::uint32_t>(inputs.pool.size()));
      } else {
        (void)controller.begin_plaintext_session(entry.duration_s);
        ms::sim::SampleSpec beads;
        beads.components = ms::auth::encode_mixture(
            alphabet, inputs.codes[i % kUsers]);
        const auto acq = encryptor.acquire(
            beads, controller.session_key_schedule_for_testing(),
            entry.duration_s, mix(options.seed, 3000 + i));
        ms::net::AuthPassPayload pass;
        pass.upload = relay_payload(ms::net::serialize_series(acq.signals));
        pass.volume_ul = controller.session_volume_ul();
        pass.duration_s = entry.duration_s;
        entry.payload = pass.serialize();
        expect(entry, reference.respond(true, entry.payload), "auth pass");
        auth_ids.push_back(static_cast<std::uint32_t>(inputs.pool.size()));
      }
      inputs.pool.push_back(std::move(entry));
    }
  }

  // --- Assay clients: several 60 s encrypted diagnostic acquisitions
  // (one controller key schedule each) and plaintext auth passes of
  // several enrolled users. The pass window is examples/full_assay's
  // 420 s: at the pipeline test's 120 s (and at 240 s) some codes with a
  // 750/uL level are not accepted.
  if (assay) {
    const auto setup = sensor_setup(assay_carriers());
    ms::core::SensorEncryptor encryptor(setup.design, setup.channel,
                                        setup.acquisition);
    const double dx_duration = options.tiny ? 10.0 : 60.0;
    const double auth_duration = 420.0;
    for (std::uint32_t k = 0; k < kAssayClients; ++k) {
      AssayClient client;
      client.device = k;
      client.code = k;
      for (std::uint32_t j = 0; j < kAssayUploads; ++j) {
        AssayUpload dx;
        dx.controller_seed = mix(options.seed, 4000 + 16 * k + j);
        ms::core::Controller controller(
            setup.key_params, setup.design,
            ms::core::DiagnosticProfile::cd4_staging(), dx.controller_seed);
        (void)controller.begin_session(dx_duration);
        ms::sim::SampleSpec cells;
        cells.components = {{ms::sim::ParticleType::kBead780, 150.0}};
        const auto acq = encryptor.acquire(
            cells, controller.session_key_schedule_for_testing(), dx_duration,
            mix(options.seed, 5000 + 16 * k + j));
        dx.series = ms::net::serialize_series(acq.signals);
        PoolEntry upload{false, true, relay_payload(dx.series).serialize(),
                         {}, dx.controller_seed, dx_duration};
        expect(upload, reference.respond(false, upload.payload),
               "assay upload");
        if (upload.accepted)
          dx.count =
              controller
                  .conclude(ms::core::PeakReport::deserialize(upload.expected))
                  .estimated_count;
        dx.pool = static_cast<std::uint32_t>(inputs.pool.size());
        inputs.pool.push_back(std::move(upload));
        client.uploads.push_back(std::move(dx));
      }

      for (std::uint32_t j = 0; j < kAssayAuths; ++j) {
        // Client k's users are k, k + clients, k + 2 * clients, ...
        const std::uint32_t user = k + kAssayClients * j;
        AssayAuth pass_in;
        pass_in.user_id = Reference::user_id(user);
        pass_in.duration_s = auth_duration;
        ms::core::Controller auth_controller(
            setup.key_params, setup.design,
            ms::core::DiagnosticProfile::cd4_staging(),
            mix(options.seed, 6000 + 16 * k + j));
        (void)auth_controller.begin_plaintext_session(auth_duration);
        ms::sim::SampleSpec beads;
        beads.components =
            ms::auth::encode_mixture(alphabet, inputs.codes[user]);
        const auto acq = encryptor.acquire(
            beads, auth_controller.session_key_schedule_for_testing(),
            auth_duration, mix(options.seed, 7000 + 16 * k + j));
        pass_in.series = ms::net::serialize_series(acq.signals);
        pass_in.volume_ul = auth_controller.session_volume_ul();
        ms::net::AuthPassPayload pass;
        pass.upload = relay_payload(pass_in.series);
        pass.volume_ul = pass_in.volume_ul;
        pass.duration_s = auth_duration;
        PoolEntry auth{true, true, pass.serialize(), {}, 0, auth_duration};
        expect(auth, reference.respond(true, auth.payload), "assay auth pass");
        const auto decision =
            auth.accepted
                ? ms::net::AuthDecisionPayload::deserialize(auth.expected)
                : ms::net::AuthDecisionPayload{};
        if (!decision.authenticated || decision.user_id != pass_in.user_id)
          std::fprintf(stderr,
                       "perfbench_gen: finding: auth pass of %s decided "
                       "'%s' (code %s, distance %.3f); its ops will fail\n",
                       pass_in.user_id.c_str(), decision.user_id.c_str(),
                       inputs.codes[user].to_string().c_str(),
                       decision.distance);
        pass_in.pool = static_cast<std::uint32_t>(inputs.pool.size());
        inputs.pool.push_back(std::move(auth));
        client.auths.push_back(std::move(pass_in));
      }
      inputs.clients.push_back(std::move(client));
    }
  }

  // --- Op scripts (one per client thread; the runner cycles them).
  const std::size_t script_len = options.tiny ? 4096 : (1u << 17);
  if (assay) {
    // Uploads cycle through the client's acquisitions (arg); every 4th
    // op is an auth pass, cycling through the client's users.
    for (std::uint32_t k = 0; k < kAssayClients; ++k) {
      std::vector<Op> script(4 * kAssayUploads * kAssayAuths);
      for (std::uint32_t i = 0; i < script.size(); ++i)
        script[i] =
            i % 4 == 3
                ? Op{OpKind::kAuthPass, (i / 4) % kAssayAuths, k, k}
                : Op{OpKind::kUpload, (i - i / 4) % kAssayUploads, k, k};
      inputs.scripts.push_back(std::move(script));
    }
  } else if (fleet) {
    constexpr std::uint64_t kWorkers = 3;
    const std::uint64_t per_worker = fleet_devices / kWorkers;
    for (std::uint64_t w = 0; w < kWorkers; ++w) {
      std::vector<Op> script;
      script.reserve(script_len + 8);
      while (script.size() < script_len) {
        const std::uint64_t device = w + kWorkers * rng.below(per_worker);
        script.push_back({OpKind::kHandshake, 0, device, 0});
        // Replays and stale counters need an exchange the session
        // committed: an accepted fresh op (some uploads are refused).
        bool committed = false;
        // 16..48 commands: of all ops ~3 % handshakes, ~20 % replays,
        // ~10 % must-refuse traffic, the rest fresh uploads and passes.
        const std::uint64_t commands = 16 + rng.below(33);
        for (std::uint64_t j = 0; j < commands; ++j) {
          const double r = rng.uniform();
          const auto upload = upload_ids[rng.below(upload_ids.size())];
          const auto pass = auth_ids[rng.below(auth_ids.size())];
          if (!committed || r >= 0.31) {
            // Fresh work: ~1 in 6 fresh commands is an auth pass.
            const bool auth_pass = rng.below(6) == 0;
            const auto idx = auth_pass ? pass : upload;
            script.push_back({auth_pass ? OpKind::kAuthPass : OpKind::kUpload,
                              idx, device, 0});
            committed = committed || inputs.pool[idx].accepted;
          } else if (r < 0.21) {
            script.push_back({OpKind::kReplay, 0, device, 0});
          } else {
            constexpr OpKind kRefused[] = {OpKind::kBadMac,
                                           OpKind::kStaleCounter,
                                           OpKind::kUnknownDevice,
                                           OpKind::kLegacy};
            const OpKind kind = kRefused[rng.below(4)];
            // An unknown device is an id past the enrolled range.
            const std::uint64_t target =
                kind == OpKind::kUnknownDevice
                    ? fleet_devices + rng.below(1000000)
                    : device;
            script.push_back({kind, upload, target, 0});
          }
        }
      }
      inputs.scripts.push_back(std::move(script));
    }
  } else {
    constexpr std::uint32_t kWriters = 4;
    for (std::uint32_t w = 0; w < kWriters; ++w) {
      std::vector<Op> script(script_len);
      for (std::size_t i = 0; i < script.size(); ++i) {
        const auto code = static_cast<std::uint32_t>(
            w + kWriters * rng.below(kWriterCodes / kWriters));
        script[i] = {i % 5 == 4 ? OpKind::kRead : OpKind::kUpload,
                     upload_ids[rng.below(upload_ids.size())], w, code};
      }
      inputs.scripts.push_back(std::move(script));
    }
  }

  // --- Initial state dir, journaled through the durable layer (no fsync).
  // Pre-existing records carry real analysis results, every generated
  // report in turn (so their total size varies little between seeds).
  std::vector<std::uint32_t> record_ids;
  for (std::uint32_t i = 0; i < inputs.pool.size(); ++i)
    if (!inputs.pool[i].auth && inputs.pool[i].accepted)
      record_ids.push_back(i);
  if (record_ids.empty()) {
    std::fprintf(stderr, "perfbench_gen: every generated upload was refused\n");
    return 1;
  }
  {
    ms::cloud::DurableState durable(durability_config(
        (out / "state").string(), inputs.storage_key, /*fsync=*/false));
    auto server = make_server();
    server->attach_durability(durable);
    server->rotate_master_key(kEpoch, inputs.master_key);
    server->enroll_device(kProbeDevice);
    const std::uint64_t devices =
        fleet ? fleet_devices : (assay ? 2 : 4);
    for (std::uint64_t d = 0; d < devices; ++d) server->enroll_device(d);
    for (std::size_t u = 0; u < kUsers; ++u)
      server->enroll_user(Reference::user_id(u), inputs.codes[u]);
    // ingest holds more (small) records, so its set-up has work to time.
    const std::uint32_t per_code =
        options.tiny ? 4 : options.workload == "ingest" ? 160 : 32;
    for (std::size_t c = 0; c < inputs.codes.size(); ++c) {
      for (std::uint32_t r = 0; r < per_code; ++r) {
        const std::uint64_t sid = (1ull << 50) + c * 1000 + r;
        const auto& bytes =
            inputs.pool[record_ids[(c * per_code + r) % record_ids.size()]]
                .expected;
        server->store_result(inputs.codes[c], {sid, bytes});
        if (r + 1 == per_code) {
          inputs.initial_count.push_back(per_code);
          inputs.initial_latest_sid.push_back(sid);
          inputs.initial_latest.push_back(bytes);
        }
      }
    }
    server.reset();
  }

  ms::util::write_file((out / "inputs.bin").string(), inputs.serialize());
  return 0;
}
