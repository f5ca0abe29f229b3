#include "common.h"

#include <stdexcept>

#include "auth/classifier.h"
#include "compress/codec.h"
#include "crypto/cmac.h"
#include "util/serialize.h"

namespace perfbench {

std::uint64_t Rng::next() {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng{a ^ (b * 0xD1B54A32D192ED03ull)};
  rng.next();
  return rng.next();
}

std::vector<double> assay_carriers() { return {5.0e5, 8.0e5, 2.0e6, 2.5e6}; }

ms::cloud::ServiceConfig service_config() {
  ms::cloud::ServiceConfig service;
  service.quality_gate = true;
  service.allow_legacy_plane = false;
  return service;
}

ms::cloud::AnalysisConfig analysis_config() {
  ms::cloud::AnalysisConfig analysis;
  analysis.threads = 1;
  return analysis;
}

std::unique_ptr<ms::cloud::CloudServer> make_server() {
  return std::make_unique<ms::cloud::CloudServer>(
      analysis_config(), ms::auth::CytoAlphabet{},
      ms::auth::ParticleClassifier::train({assay_carriers(), 300, 0.06, 7}),
      ms::auth::VerifierConfig{}, nullptr, service_config());
}

ms::cloud::DurabilityConfig durability_config(
    const std::string& dir, const std::vector<std::uint8_t>& storage_key,
    bool fsync) {
  ms::cloud::DurabilityConfig config;
  config.dir = dir;
  config.fsync = fsync;
  config.storage_key = storage_key;
  return config;
}

SensorSetup sensor_setup(std::vector<double> carriers) {
  SensorSetup setup{ms::sim::standard_design(9), {}, {}, {}};
  setup.channel.loss.enabled = false;
  setup.acquisition.carriers_hz = std::move(carriers);
  setup.acquisition.noise_sigma = 5e-5;
  setup.acquisition.drift.slow_amplitude = 0.002;
  setup.acquisition.drift.random_walk_sigma = 1e-6;
  setup.key_params.num_electrodes = 9;
  setup.key_params.period_s = 4.0;
  setup.key_params.gain_min = 0.8;
  setup.key_params.gain_max = 1.6;
  return setup;
}

ms::net::SignalUploadPayload relay_payload(std::vector<std::uint8_t> raw) {
  ms::net::SignalUploadPayload payload;
  payload.sample_rate_hz = kSampleRateHz;
  payload.compressed = raw.size() >= 4096;
  payload.data =
      payload.compressed ? ms::compress::compress(raw) : std::move(raw);
  return payload;
}

std::vector<std::uint8_t> device_key(const std::vector<std::uint8_t>& master,
                                     std::uint64_t device) {
  return ms::crypto::diversify_device_key(master, device, kEpoch);
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kUpload: return "upload";
    case OpKind::kAuthPass: return "auth_pass";
    case OpKind::kReplay: return "replay";
    case OpKind::kBadMac: return "bad_mac";
    case OpKind::kStaleCounter: return "stale_counter";
    case OpKind::kUnknownDevice: return "unknown_device";
    case OpKind::kLegacy: return "legacy";
    case OpKind::kRead: return "read";
    case OpKind::kHandshake: return "handshake";
  }
  return "?";
}

namespace {
constexpr std::uint32_t kMagic = 0x50424E31;  // "PBN1"
}

std::vector<std::uint8_t> Inputs::serialize() const {
  ms::util::ByteWriter out;
  out.u32(kMagic);
  out.str(workload);
  out.u64(seed);
  out.u8(tiny ? 1 : 0);
  out.blob(storage_key);
  out.blob(master_key);
  out.u32(static_cast<std::uint32_t>(codes.size()));
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out.blob(codes[i].levels);
    out.u32(initial_count[i]);
    out.u64(initial_latest_sid[i]);
    out.blob(initial_latest[i]);
  }
  out.u32(static_cast<std::uint32_t>(pool.size()));
  for (const auto& entry : pool) {
    out.u8(entry.auth ? 1 : 0);
    out.u8(entry.accepted ? 1 : 0);
    out.blob(entry.payload);
    out.blob(entry.expected);
    out.u64(entry.controller_seed);
    out.f64(entry.duration_s);
  }
  out.u32(static_cast<std::uint32_t>(clients.size()));
  for (const auto& c : clients) {
    out.u64(c.device);
    out.u32(c.code);
    out.u32(static_cast<std::uint32_t>(c.uploads.size()));
    for (const auto& u : c.uploads) {
      out.u64(u.controller_seed);
      out.u32(u.pool);
      out.blob(u.series);
      out.f64(u.count);
    }
    out.u32(static_cast<std::uint32_t>(c.auths.size()));
    for (const auto& a : c.auths) {
      out.u32(a.pool);
      out.blob(a.series);
      out.f64(a.volume_ul);
      out.f64(a.duration_s);
      out.str(a.user_id);
    }
  }
  out.u32(static_cast<std::uint32_t>(scripts.size()));
  for (const auto& script : scripts) {
    out.u32(static_cast<std::uint32_t>(script.size()));
    for (const auto& op : script) {
      out.u8(static_cast<std::uint8_t>(op.kind));
      out.u32(op.arg);
      out.u64(op.device);
      out.u32(op.code);
    }
  }
  return out.take();
}

Inputs Inputs::deserialize(const std::vector<std::uint8_t>& bytes) {
  ms::util::ByteReader in(bytes);
  if (in.u32() != kMagic) throw std::runtime_error("inputs: bad magic");
  Inputs inputs;
  inputs.workload = in.str();
  inputs.seed = in.u64();
  inputs.tiny = in.u8() != 0;
  inputs.storage_key = in.blob();
  inputs.master_key = in.blob();
  const std::uint32_t code_count = in.u32();
  for (std::uint32_t i = 0; i < code_count; ++i) {
    ms::auth::CytoCode code;
    code.levels = in.blob();
    inputs.codes.push_back(std::move(code));
    inputs.initial_count.push_back(in.u32());
    inputs.initial_latest_sid.push_back(in.u64());
    inputs.initial_latest.push_back(in.blob());
  }
  const std::uint32_t pool_size = in.u32();
  for (std::uint32_t i = 0; i < pool_size; ++i) {
    PoolEntry entry;
    entry.auth = in.u8() != 0;
    entry.accepted = in.u8() != 0;
    entry.payload = in.blob();
    entry.expected = in.blob();
    entry.controller_seed = in.u64();
    entry.duration_s = in.f64();
    inputs.pool.push_back(std::move(entry));
  }
  const std::uint32_t client_count = in.u32();
  for (std::uint32_t i = 0; i < client_count; ++i) {
    AssayClient c;
    c.device = in.u64();
    c.code = in.u32();
    c.uploads.resize(in.u32());
    for (auto& u : c.uploads) {
      u.controller_seed = in.u64();
      u.pool = in.u32();
      u.series = in.blob();
      u.count = in.f64();
    }
    c.auths.resize(in.u32());
    for (auto& a : c.auths) {
      a.pool = in.u32();
      a.series = in.blob();
      a.volume_ul = in.f64();
      a.duration_s = in.f64();
      a.user_id = in.str();
    }
    inputs.clients.push_back(std::move(c));
  }
  const std::uint32_t script_count = in.u32();
  for (std::uint32_t s = 0; s < script_count; ++s) {
    std::vector<Op> script(in.u32());
    for (auto& op : script) {
      op.kind = static_cast<OpKind>(in.u8());
      op.arg = in.u32();
      op.device = in.u64();
      op.code = in.u32();
    }
    inputs.scripts.push_back(std::move(script));
  }
  in.expect_done("perfbench inputs");
  return inputs;
}

}  // namespace perfbench
