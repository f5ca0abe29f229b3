#pragma once
// Shared pieces of the MedSen benchmark: the one CloudServer
// configuration every workload measures, the durability settings, the
// seeded RNG, and the input bundle the generator (gen.cpp) writes and the
// measured runner (run.cpp) reads. The runner never generates inputs
// itself; it only replays what the bundle holds.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "auth/identifier.h"
#include "cloud/durability.h"
#include "cloud/server.h"
#include "core/key.h"
#include "sim/acquisition.h"
#include "sim/channel.h"
#include "sim/electrode_array.h"

namespace perfbench {

namespace ms = medsen;

/// SplitMix64: cheap seeded uniform draws with no cross-run drift.
struct Rng {
  std::uint64_t state;
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Master-key epoch every device is personalized under.
constexpr std::uint32_t kEpoch = 1;
/// Enrolled in every state dir; the runner's single-threaded probe pass
/// (traced runs) talks to the server through it.
constexpr std::uint64_t kProbeDevice = 900000000ull;
/// Carriers of the assay acquisitions (as in examples/full_assay).
std::vector<double> assay_carriers();
/// Carrier of the small fleet/ingest uploads.
constexpr double kSmallCarrierHz = 5.0e5;
constexpr double kSampleRateHz = 450.0;

/// The single server configuration: quality gate on, legacy plane off,
/// session plane, serial analysis, default shards and cache capacity.
ms::cloud::ServiceConfig service_config();
ms::cloud::AnalysisConfig analysis_config();
std::unique_ptr<ms::cloud::CloudServer> make_server();
/// Durability as served: fsync on every append, sealed with the storage
/// key, default auto-compaction threshold. The generator passes
/// fsync = false to build the initial state dir quickly.
ms::cloud::DurabilityConfig durability_config(
    const std::string& dir, const std::vector<std::uint8_t>& storage_key,
    bool fsync);

/// Sensor-side configuration shared by generator and runner (the runner
/// rebuilds each assay client's Controller from its seed).
struct SensorSetup {
  ms::sim::ElectrodeArrayDesign design;
  ms::sim::ChannelConfig channel;
  ms::sim::AcquisitionConfig acquisition;
  ms::core::KeyParams key_params;
};
SensorSetup sensor_setup(std::vector<double> carriers);

/// The phone relay's upload encoding of a serialized series: binary,
/// compressed when it is at least 4 KiB.
ms::net::SignalUploadPayload relay_payload(std::vector<std::uint8_t> raw);

std::vector<std::uint8_t> device_key(const std::vector<std::uint8_t>& master,
                                     std::uint64_t device);

enum class OpKind : std::uint8_t {
  kUpload = 0,         ///< fresh upload of pool[arg]
  kAuthPass = 1,       ///< fresh auth pass of pool[arg]
  kReplay = 2,         ///< byte-identical re-send of the session's last success
  kBadMac = 3,         ///< pool[arg] upload with a tampered MAC
  kStaleCounter = 4,   ///< never-used counter below the anti-replay window
  kUnknownDevice = 5,  ///< handshake from a device that was never enrolled
  kLegacy = 6,         ///< counter-0 static-key command
  kRead = 7,           ///< practitioner read of code[arg]
  kHandshake = 8,      ///< open a device session (fleet)
};
constexpr int kOpKinds = 9;
const char* op_name(OpKind kind);

struct Op {
  OpKind kind = OpKind::kUpload;
  std::uint32_t arg = 0;     ///< pool index or code index
  std::uint64_t device = 0;  ///< device id (fleet, ingest uploads: code)
  std::uint32_t code = 0;    ///< ingest: code the result is stored under
};

/// One generated request payload and the response the server must give.
struct PoolEntry {
  bool auth = false;  ///< AuthPassPayload (else SignalUploadPayload)
  /// The reference served it (else refused it with a kError envelope,
  /// e.g. a quality-gate rejection; the measured server must agree).
  bool accepted = true;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> expected;  ///< expected response payload
  std::uint64_t controller_seed = 0;   ///< uploads: encrypting controller
  double duration_s = 0.0;
};

/// One pre-generated diagnostic acquisition of an assay client, with the
/// seed of the controller whose key schedule encrypted it. Its relay
/// payload and expected response sit in the pool.
struct AssayUpload {
  std::uint64_t controller_seed = 0;
  std::uint32_t pool = 0;
  std::vector<std::uint8_t> series;  ///< net::serialize_series bytes
  double count = 0.0;                ///< decoded count at generation
};

/// A pre-generated plaintext auth pass of one enrolled user.
struct AssayAuth {
  std::uint32_t pool = 0;
  std::vector<std::uint8_t> series;  ///< net::serialize_series bytes
  double volume_ul = 0.0;
  double duration_s = 0.0;
  std::string user_id;
};

/// An assay client (one dongle): its acquisitions and auth passes.
struct AssayClient {
  std::uint64_t device = 0;
  std::uint32_t code = 0;  ///< cyto-code its results are stored under
  std::vector<AssayUpload> uploads;
  std::vector<AssayAuth> auths;
};

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  bool tiny = false;
  std::vector<std::uint8_t> storage_key;
  std::vector<std::uint8_t> master_key;
  std::vector<ms::auth::CytoCode> codes;
  /// Records each code holds in the initial state dir, and its latest.
  std::vector<std::uint32_t> initial_count;
  std::vector<std::uint64_t> initial_latest_sid;
  std::vector<std::vector<std::uint8_t>> initial_latest;
  std::vector<PoolEntry> pool;
  std::vector<AssayClient> clients;
  std::vector<std::vector<Op>> scripts;  ///< one per client thread

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static Inputs deserialize(const std::vector<std::uint8_t>& bytes);
};

}  // namespace perfbench
