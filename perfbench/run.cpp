// perfbench_run: the measured process of the MedSen benchmark.
//
//   perfbench_run --workload assay|fleet|ingest --inputs DIR --work DIR
//                 --seconds S --trace 0|1 [--setups K]
//
// Reads what perfbench_gen wrote to DIR, opens a copy of its state dir
// (durability attached: fsync on every append, sealed) and keeps that
// server, times K such set-ups (half before the load, the rest after
// it), and drives the workload's client threads in closed
// loops for S seconds through the public API only: CloudServer::handle,
// store_result, records(), compress::*, net::make_envelope /
// verify_envelope, Controller::conclude and SessionCrypto. Every op's
// output is checked against the response fixed at generation.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced
// and untraced 100 ms slices of the load (the throughput difference is
// the tracing overhead) and records bench-side spans around each layer
// call. It splits the load into stretches; after each, with the clients
// stopped, a single-threaded probe round re-runs handle() and the stages
// it is made of on the same requests. It then prints the per-layer
// metrics. Spans are written to WORK/spans.tsv at exit.
//
// The last stdout line is the JSON result; the exit code is 1 when any
// op's output was wrong.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "compress/codec.h"
#include "core/controller.h"
#include "core/session_crypto.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/hmac.h"
#include "util/fileio.h"

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string workload;
  std::string inputs;
  std::string work;
  double seconds = 10.0;
  bool trace = false;
  int setups = 7;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "perfbench_run --workload assay|fleet|ingest --inputs DIR "
               "--work DIR --seconds S --trace 0|1 [--setups K]\n");
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
    else if (arg == "--inputs") o.inputs = value();
    else if (arg == "--work") o.work = value();
    else if (arg == "--seconds")
      o.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--trace") o.trace = value() == "1";
    else if (arg == "--setups") o.setups = std::atoi(value().c_str());
    else usage();
  }
  if (o.inputs.empty() || o.work.empty() || o.seconds <= 0.0 ||
      o.setups < 1 ||
      (o.workload != "assay" && o.workload != "fleet" &&
       o.workload != "ingest"))
    usage();
  return o;
}

double now_us() {
  static const auto epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in [0,1]) of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --------------------------------------------------------------------
// Spans: name, start, end, parent, op id — kept per thread in memory.
// Each also names the pool entry its op sends, so an in-load call can be
// paired with the probe pass's re-run of the same request.

constexpr std::uint32_t kNoEntry = ~0u;

struct Span {
  const char* name;
  double start_us;
  double end_us;
  std::int32_t parent;
  std::uint64_t op;
  OpKind kind;
  std::uint32_t entry;  ///< pool entry of the op's request, or kNoEntry
};

class SpanLog {
 public:
  bool enabled = false;

  std::int32_t open(const char* name, std::uint64_t op, OpKind kind,
                    std::uint32_t entry) {
    if (!enabled) return -1;
    spans_.push_back({name, now_us(), 0.0, current_, op, kind, entry});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Scoped span around one layer call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t op, OpKind kind,
        std::uint32_t entry)
      : log_(log), id_(log.open(name, op, kind, entry)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Durations (us) of spans named `name`, optionally of one op kind.
std::vector<double> durations(const std::vector<const SpanLog*>& logs,
                              const std::string& name, int kind = -1) {
  std::vector<double> out;
  for (const auto* log : logs)
    for (const auto& span : log->spans())
      if (name == span.name &&
          (kind < 0 || static_cast<int>(span.kind) == kind))
        out.push_back(span.end_us - span.start_us);
  return out;
}

// --------------------------------------------------------------------
// The measured service: DurableState + CloudServer over one state dir.
// Members destroy in reverse order, so the server goes before the WAL.

struct Service {
  std::unique_ptr<ms::cloud::DurableState> durable;
  std::unique_ptr<ms::cloud::CloudServer> server;
  ms::cloud::RecoveryStats recovery;
};

/// Server first: it holds a pointer into the DurableState.
void close_service(Service& s) {
  s.server.reset();
  s.durable.reset();
}

Service open_service(const std::string& dir, const Inputs& inputs) {
  Service s;
  s.durable = std::make_unique<ms::cloud::DurableState>(
      durability_config(dir, inputs.storage_key, /*fsync=*/true));
  s.server = make_server();
  s.recovery = s.server->attach_durability(*s.durable);
  return s;
}

/// A journal file's fixed header (magic, version, flags, reserved).
constexpr std::uint64_t kJournalHeaderBytes = 16;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A "VmRSS:" / "VmHWM:" line of /proc/self/status, in MB (0 if absent).
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field, 0) == 0)
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
  return 0.0;
}

/// Restart the peak-RSS (VmHWM) count from the current RSS.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

bool same_envelope(const ms::net::Envelope& a, const ms::net::Envelope& b) {
  return a.type == b.type && a.session_id == b.session_id &&
         a.device_id == b.device_id && a.counter == b.counter &&
         a.payload == b.payload && a.mac == b.mac;
}

/// kError code of a response (nullopt when it is not an error).
std::optional<ms::net::ErrorCode> error_code(const ms::net::Envelope& r) {
  if (r.type != ms::net::MessageType::kError) return std::nullopt;
  return ms::net::ErrorPayload::deserialize(r.payload).code;
}

ms::net::MessageType request_type(const PoolEntry& entry) {
  return entry.auth ? ms::net::MessageType::kAuthPass
                    : ms::net::MessageType::kSignalUpload;
}

/// The response the generator fixed for a fresh pool request.
bool matches_expected(const PoolEntry& entry, const ms::net::Envelope& r) {
  const auto want = !entry.accepted ? ms::net::MessageType::kError
                    : entry.auth    ? ms::net::MessageType::kAuthDecision
                                    : ms::net::MessageType::kAnalysisResult;
  return r.type == want && r.payload == entry.expected;
}

// --------------------------------------------------------------------
// Client threads.

struct Ack {
  std::uint32_t code;
  std::uint64_t session_id;
  std::uint32_t pool;
};

struct WorkerResult {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t commands = 0;  ///< ops other than fleet handshakes
  std::uint64_t failed = 0;
  std::array<std::uint64_t, kOpKinds> by_kind{};
  std::array<std::uint64_t, kOpKinds> failed_by_kind{};
  std::uint64_t uplink_bytes = 0;
  std::uint64_t request_count = 0;  ///< envelopes sent (excl. reads)
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  std::vector<std::string> failures;  ///< first few, for the report
  std::vector<Ack> acks;              ///< acknowledged stored records
  SpanLog spans;
};

struct Shared {
  const Inputs& inputs;
  ms::cloud::CloudServer& server;
  bool trace = false;
  std::atomic<bool> stop{false};
  std::atomic<bool> traced_slice{false};
  std::size_t envelope_overhead = 0;  ///< serialized bytes beyond payload
};

/// One closed-loop client: runs its script (cycled) until stop.
class Client {
 public:
  Client(Shared& shared, std::size_t index, WorkerResult& result)
      : shared_(shared), in_(shared.inputs), index_(index), r_(result) {}
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Set-up before the clock starts (handshakes of long-lived sessions).
  virtual bool prepare() { return true; }

  /// Continues the script from where the last call stopped.
  void run() {
    const auto& script = in_.scripts.at(index_);
    for (; !shared_.stop.load(std::memory_order_relaxed); ++next_) {
      const std::size_t i = next_;
      const Op& op = script[i % script.size()];
      before(op);
      const bool traced =
          shared_.trace && shared_.traced_slice.load(std::memory_order_relaxed);
      r_.spans.enabled = traced;
      op_id_ = (static_cast<std::uint64_t>(index_) << 48) | i;
      kind_ = op.kind;
      entry_ = entry_of(op);
      const double t0 = now_us();
      bool ok = false;
      {
        Scope scope(r_.spans, "op", op_id_, kind_, entry_);
        ok = execute(op);
      }
      const double t1 = now_us();
      // A fleet handshake opens a device session (the app's start-up, as
      // in bench_fleet_load): checked and counted as an op, but throughput
      // is over commands. Latency is over the commands that do fresh work
      // (uploads, auth passes, reads), not over replays and refusals.
      if (op.kind != OpKind::kHandshake) ++r_.commands;
      if (op.kind == OpKind::kUpload || op.kind == OpKind::kAuthPass ||
          op.kind == OpKind::kRead)
        r_.latency_ms.push_back((t1 - t0) / 1000.0);
      ++r_.attempted;
      ++r_.by_kind[static_cast<int>(op.kind)];
      (traced ? r_.traced_ops : r_.untraced_ops) += 1;
      if (!ok) {
        ++r_.failed;
        ++r_.failed_by_kind[static_cast<int>(op.kind)];
      }
    }
  }

 protected:
  /// Untimed per-op preparation (client-side key personalization).
  virtual void before(const Op&) {}
  virtual bool execute(const Op& op) = 0;
  /// Pool entry whose payload `op` sends as a fresh request, if any.
  [[nodiscard]] virtual std::uint32_t entry_of(const Op& op) const {
    return op.kind == OpKind::kUpload || op.kind == OpKind::kAuthPass
               ? op.arg
               : kNoEntry;
  }

  bool fail(const std::string& what) {
    if (r_.failures.size() < 8)
      r_.failures.push_back(std::string(op_name(kind_)) + ": " + what);
    return false;
  }

  Scope span(const char* name) {
    return Scope(r_.spans, name, op_id_, kind_, entry_);
  }

  ms::net::Envelope seal(ms::net::MessageType type, std::uint64_t session,
                         std::uint64_t device,
                         std::vector<std::uint8_t> payload,
                         std::span<const std::uint8_t> key,
                         std::uint32_t counter) {
    ms::net::Envelope env;
    {
      auto s = span("make_envelope");
      env = ms::net::make_envelope(type, session, device, std::move(payload),
                                   key, counter);
    }
    count_uplink(env);
    return env;
  }

  void count_uplink(const ms::net::Envelope& env) {
    r_.uplink_bytes += shared_.envelope_overhead + env.payload.size();
    ++r_.request_count;
  }

  ms::net::Envelope handle(const ms::net::Envelope& request) {
    auto s = span("handle");
    return shared_.server.handle(request);
  }

  /// Handshake `crypto` under a fresh session id; spans split the client
  /// half (make_challenge, complete) from the server's handle().
  bool handshake(ms::core::SessionCrypto& crypto) {
    ms::net::Envelope challenge;
    {
      auto s = span("make_challenge");
      challenge = crypto.make_challenge(next_session());
    }
    count_uplink(challenge);
    const auto response = handle(challenge);
    auto s = span("complete");
    return crypto.complete(response);
  }

  std::uint64_t next_session() {
    return (static_cast<std::uint64_t>(index_ + 1) << 44) + ++sessions_;
  }

  Shared& shared_;
  const Inputs& in_;
  std::size_t index_;
  WorkerResult& r_;
  std::size_t next_ = 0;  ///< script position
  std::uint64_t op_id_ = 0;
  OpKind kind_ = OpKind::kUpload;
  std::uint32_t entry_ = kNoEntry;
  std::uint64_t sessions_ = 0;
};

/// assay: the post-acquisition diagnostic round trip of one dongle. Each
/// acquisition keeps the controller whose key schedule encrypted it; the
/// first one also carries the dongle's negotiated session.
class AssayLoop final : public Client {
 public:
  using Client::Client;

  bool prepare() override {
    const auto& c = in_.clients.at(index_);
    const auto setup = sensor_setup(assay_carriers());
    for (const auto& dx : c.uploads) {
      controllers_.push_back(std::make_unique<ms::core::Controller>(
          setup.key_params, setup.design,
          ms::core::DiagnosticProfile::cd4_staging(), dx.controller_seed));
      (void)controllers_.back()->begin_session(
          in_.pool.at(dx.pool).duration_s);
      series_.push_back(ms::net::deserialize_series(dx.series));
    }
    controllers_.front()->enable_session_crypto(
        c.device, device_key(in_.master_key, c.device), kEpoch);
    for (const auto& pass : c.auths)
      auth_series_.push_back(ms::net::deserialize_series(pass.series));
    return handshake(*controllers_.front()->session_crypto());
  }

 protected:
  bool execute(const Op& op) override {
    const auto& c = in_.clients.at(index_);
    const bool auth = op.kind == OpKind::kAuthPass;
    const PoolEntry& entry = in_.pool.at(entry_index(op));
    auto& crypto = *controllers_.front()->session_crypto();

    std::vector<std::uint8_t> raw;
    {
      auto s = span("serialize");
      raw = ms::net::serialize_series(auth ? auth_series_[op.arg]
                                           : series_[op.arg]);
    }
    std::vector<std::uint8_t> payload;
    {
      auto s = span("compress");
      auto upload = relay_payload(std::move(raw));
      if (auth) {
        ms::net::AuthPassPayload pass;
        pass.upload = std::move(upload);
        pass.volume_ul = c.auths[op.arg].volume_ul;
        pass.duration_s = c.auths[op.arg].duration_s;
        payload = pass.serialize();
      } else {
        payload = upload.serialize();
      }
    }
    if (payload != entry.payload)
      return fail("relay payload differs from the generated one");

    const auto request =
        seal(request_type(entry), crypto.session_id(), c.device,
             std::move(payload), crypto.session_mac_key(),
             crypto.next_counter());
    const auto response = handle(request);
    if (!matches_expected(entry, response))
      return fail("response differs from the generated one");
    if (!ms::net::verify_envelope(response, crypto.session_mac_key()))
      return fail("response MAC does not verify");
    if (!entry.accepted) return true;

    if (auth) {
      const auto decision =
          ms::net::AuthDecisionPayload::deserialize(response.payload);
      const auto& user = c.auths[op.arg].user_id;
      if (!decision.authenticated || decision.user_id != user)
        return fail("auth pass did not return the enrolled user " + user);
      return true;
    }
    const std::uint64_t sid = request.session_id ^ request.counter;
    {
      auto s = span("store_result");
      shared_.server.store_result(in_.codes.at(c.code),
                                  {sid, response.payload});
    }
    r_.acks.push_back({c.code, sid, entry_index(op)});
    auto s = span("conclude");
    const auto diagnosis = controllers_[op.arg]->conclude(
        ms::core::PeakReport::deserialize(response.payload));
    if (diagnosis.estimated_count != c.uploads[op.arg].count)
      return fail("decoded count differs from generation");
    return true;
  }

 protected:
  [[nodiscard]] std::uint32_t entry_of(const Op& op) const override {
    return entry_index(op);
  }

 private:
  std::uint32_t entry_index(const Op& op) const {
    const auto& c = in_.clients.at(index_);
    return op.kind == OpKind::kAuthPass ? c.auths.at(op.arg).pool
                                        : c.uploads.at(op.arg).pool;
  }

  std::vector<std::unique_ptr<ms::core::Controller>> controllers_;
  std::vector<ms::util::MultiChannelSeries> series_;
  std::vector<ms::util::MultiChannelSeries> auth_series_;
};

/// fleet: device sessions (handshake + commands) across the partition.
class FleetLoop final : public Client {
 public:
  using Client::Client;

 protected:
  void before(const Op& op) override {
    if (op.kind == OpKind::kHandshake) {
      auto& slot = devices_[op.device];
      if (!slot)
        slot = std::make_unique<ms::core::SessionCrypto>(
            op.device, device_key(in_.master_key, op.device), kEpoch,
            mix(in_.seed, op.device));
    } else if (op.kind == OpKind::kUnknownDevice) {
      stranger_ = std::make_unique<ms::core::SessionCrypto>(
          op.device, device_key(in_.master_key, op.device), kEpoch,
          mix(in_.seed, op.device));
    }
  }

  bool execute(const Op& op) override {
    using ms::net::ErrorCode;
    using ms::net::MessageType;
    if (op.kind == OpKind::kHandshake) {
      current_ = devices_[op.device].get();
      has_last_ = false;
      if (!handshake(*current_)) {
        current_ = nullptr;
        return fail("handshake rejected");
      }
      // Skip a window's worth of counters: counter 1 is then below the
      // anti-replay window and never used, the stale-counter probe.
      for (std::uint32_t k = 0; k <= ms::cloud::SessionAuthTable::kWindowSize;
           ++k)
        (void)current_->next_counter();
      return true;
    }
    if (op.kind == OpKind::kUnknownDevice) {
      ms::net::Envelope challenge;
      {
        auto s = span("make_challenge");
        challenge = stranger_->make_challenge(next_session());
      }
      count_uplink(challenge);
      return expect_error(handle(challenge), ErrorCode::kUnknownDevice);
    }
    if (current_ == nullptr) return fail("no session (handshake failed)");
    auto& crypto = *current_;
    const auto key = std::span<const std::uint8_t>(crypto.session_mac_key());
    switch (op.kind) {
      case OpKind::kUpload:
      case OpKind::kAuthPass: {
        const PoolEntry& entry = in_.pool.at(op.arg);
        auto request = seal(request_type(entry), crypto.session_id(),
                            op.device, entry.payload, key,
                            crypto.next_counter());
        auto response = handle(request);
        if (!matches_expected(entry, response))
          return fail("response differs from the generated one");
        if (entry.accepted) {
          if (!ms::net::verify_envelope(response, key))
            return fail("response MAC does not verify");
          last_request_ = std::move(request);
          last_response_ = std::move(response);
          has_last_ = true;
        }
        return true;
      }
      case OpKind::kReplay: {
        if (!has_last_) return fail("script replays before any success");
        count_uplink(last_request_);
        if (!same_envelope(handle(last_request_), last_response_))
          return fail("ARQ replay was not answered byte-identically");
        return true;
      }
      case OpKind::kBadMac: {
        auto request =
            seal(MessageType::kSignalUpload, crypto.session_id(), op.device,
                 in_.pool.at(op.arg).payload, key, crypto.next_counter());
        request.mac[0] ^= 0x01;  // a tampering relay
        return expect_error(handle(request), ErrorCode::kBadMac);
      }
      case OpKind::kStaleCounter: {
        const auto request =
            seal(MessageType::kSignalUpload, crypto.session_id(), op.device,
                 in_.pool.at(op.arg).payload, key, /*counter=*/1);
        return expect_error(handle(request), ErrorCode::kStaleCounter);
      }
      case OpKind::kLegacy: {
        const auto request =
            seal(MessageType::kSignalUpload, crypto.session_id(), op.device,
                 in_.pool.at(op.arg).payload, crypto.device_key(),
                 /*counter=*/0);
        return expect_error(handle(request), ErrorCode::kAuthRequired);
      }
      default:
        return fail("op kind not part of fleet");
    }
  }

 private:
  bool expect_error(const ms::net::Envelope& response,
                    ms::net::ErrorCode want) {
    const auto code = error_code(response);
    if (code != want)
      return fail(std::string("expected ") + ms::net::to_string(want) +
                  ", got " + (code ? ms::net::to_string(*code) : "success"));
    return true;
  }

  std::unordered_map<std::uint64_t, std::unique_ptr<ms::core::SessionCrypto>>
      devices_;
  std::unique_ptr<ms::core::SessionCrypto> stranger_;
  ms::core::SessionCrypto* current_ = nullptr;
  ms::net::Envelope last_request_;
  ms::net::Envelope last_response_;
  bool has_last_ = false;
};

/// ingest: upload + store_result per op; every 5th op a practitioner read.
class IngestLoop final : public Client {
 public:
  using Client::Client;

  bool prepare() override {
    crypto_ = std::make_unique<ms::core::SessionCrypto>(
        index_, device_key(in_.master_key, index_), kEpoch,
        mix(in_.seed, index_));
    return handshake(*crypto_);
  }

 protected:
  bool execute(const Op& op) override {
    const auto& code = in_.codes.at(op.code);
    if (op.kind == OpKind::kRead) {
      std::optional<ms::cloud::StoredRecord> record;
      {
        auto s = span("read");
        record = shared_.server.records().latest(code);
      }
      const auto [sid, bytes] = expected_latest(op.code);
      if (!record || record->session_id != sid ||
          record->encrypted_result != *bytes)
        return fail("latest record is not the last acknowledged one");
      return true;
    }
    const PoolEntry& entry = in_.pool.at(op.arg);
    const auto key = std::span<const std::uint8_t>(crypto_->session_mac_key());
    const auto request =
        seal(request_type(entry), crypto_->session_id(), index_,
             entry.payload, key, crypto_->next_counter());
    const auto response = handle(request);
    if (!matches_expected(entry, response))
      return fail("response differs from the generated one");
    if (!entry.accepted) return true;
    if (!ms::net::verify_envelope(response, key))
      return fail("response MAC does not verify");
    const std::uint64_t sid =
        (static_cast<std::uint64_t>(index_ + 1) << 48) | request.counter;
    {
      auto s = span("store_result");
      shared_.server.store_result(code, {sid, response.payload});
    }
    r_.acks.push_back({op.code, sid, op.arg});
    latest_[op.code] = r_.acks.back();
    return true;
  }

 private:
  /// Latest record this writer expects under `code` (session id, bytes).
  [[nodiscard]] std::pair<std::uint64_t, const std::vector<std::uint8_t>*>
  expected_latest(std::uint32_t code) const {
    const auto it = latest_.find(code);
    if (it == latest_.end())
      return {in_.initial_latest_sid.at(code), &in_.initial_latest.at(code)};
    return {it->second.session_id, &in_.pool.at(it->second.pool).expected};
  }

  std::unique_ptr<ms::core::SessionCrypto> crypto_;
  std::unordered_map<std::uint32_t, Ack> latest_;
};

std::unique_ptr<Client> make_client(const std::string& workload,
                                    Shared& shared, std::size_t index,
                                    WorkerResult& result) {
  if (workload == "assay")
    return std::make_unique<AssayLoop>(shared, index, result);
  if (workload == "fleet")
    return std::make_unique<FleetLoop>(shared, index, result);
  return std::make_unique<IngestLoop>(shared, index, result);
}

// --------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or source, for the human report
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --------------------------------------------------------------------
// The single-threaded probe pass (traced runs only): re-runs the public
// functions handle() is made of, on the same requests, plus the
// durability, crypto and journal layers at the workload's sizes.

struct ProbeResult {
  std::map<std::string, std::vector<double>> samples;  ///< name -> values
  /// Per accepted pool entry: the fastest handle() and its stage times.
  std::map<std::uint32_t, std::map<std::string, double>> by_entry;
  std::uint64_t failures = 0;
  std::vector<std::string> notes;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
  [[nodiscard]] double med(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : median(it->second);
  }
};

/// An in-load upload handle() call: the pool entry it sent, its time.
struct InLoadCall {
  std::uint32_t entry;
  double us;
};

std::vector<InLoadCall> in_load_uploads(
    const std::vector<WorkerResult>& results) {
  std::vector<InLoadCall> calls;
  for (const auto& r : results)
    for (const auto& span : r.spans.spans())
      if (std::string(span.name) == "handle" && span.kind == OpKind::kUpload)
        calls.push_back({span.entry, span.end_us - span.start_us});
  return calls;
}

/// The in-load calls whose request the probe re-ran, each with the probe's
/// times for that pool entry.
std::vector<std::pair<double, const std::map<std::string, double>*>> paired(
    const std::vector<InLoadCall>& calls, const ProbeResult& probe) {
  std::vector<std::pair<double, const std::map<std::string, double>*>> out;
  for (const auto& call : calls) {
    const auto it = probe.by_entry.find(call.entry);
    if (it != probe.by_entry.end()) out.emplace_back(call.us, &it->second);
  }
  return out;
}

/// Median over the paired calls of the in-load time minus the probe's
/// fastest handle() of the same request (0 without a pair).
double paired_wait(const std::vector<InLoadCall>& calls,
                   const ProbeResult& probe) {
  std::vector<double> waits;
  for (const auto& [us, times] : paired(calls, probe))
    waits.push_back(us - times->at("handle"));
  return median(std::move(waits));
}

/// serve_auth_pass's plaintext peak assembly: the reference channel's
/// peaks with each channel's nearest amplitude (unit gain, no decryption).
/// A copy of the private code in CloudServer::serve_auth_pass
/// (src/cloud/server.cpp, lines 421-444); keep the two in step. It is
/// built outside the timer, so auth.authenticate_us times only
/// verifier().authenticate_peaks.
std::vector<ms::core::DecodedPeak> plaintext_peaks(
    const ms::core::PeakReport& report) {
  std::vector<ms::core::DecodedPeak> decoded;
  for (const auto& q : report.nearest_channel(5.0e5).peaks) {
    ms::core::DecodedPeak d;
    d.time_s = q.time_s;
    d.width_s = q.width_s;
    for (const auto& ch : report.channels) {
      double amplitude = 0.0, best_dt = 0.03;
      for (const auto& o : ch.peaks) {
        const double dt = std::abs(o.time_s - q.time_s);
        if (dt <= best_dt) {
          best_dt = dt;
          amplitude = o.amplitude;
        }
      }
      d.amplitudes.push_back(amplitude);
    }
    decoded.push_back(std::move(d));
  }
  return decoded;
}

template <class F>
double time_us(F&& f) {
  const double t0 = now_us();
  f();
  return now_us() - t0;
}

/// The single-threaded probe (traced runs only). Its own device session
/// re-runs the public functions handle() is made of, on the same requests
/// as the load: round() runs handle() on a fresh request (new counter)
/// and then the request's stages, once per accepted pool entry, and
/// handle() and each stage keep their fastest round (warm caches, least
/// interference). The caller runs the rounds between stretches of load,
/// so the in-load calls and their single-threaded re-runs meet the same
/// host conditions. finish() adds the durability, crypto and journal
/// layers at the workload's sizes.
class Probe {
 public:
  static constexpr int kRounds = 5;

  Probe(const Inputs& in, Service& svc)
      : in_(in),
        svc_(svc),
        server_(*svc.server),
        crypto_(kProbeDevice, device_key(in.master_key, kProbeDevice), kEpoch,
                mix(in.seed, kProbeDevice)) {
    for (std::uint32_t i = 0; i < in.pool.size(); ++i)
      if (in.pool[i].accepted) picks_.push_back(i);
  }

  /// Before the load: the probe device's handshakes, timed.
  void open() {
    auto& p = p_;
    const int handshakes = in_.tiny ? 3 : 16;
    for (int i = 0; i < handshakes; ++i) {
      ms::net::Envelope challenge;
      double client =
          time_us([&] { challenge = crypto_.make_challenge(++session_); });
      ms::net::Envelope response;
      p.add("handshake_handle",
            time_us([&] { response = server_.handle(challenge); }));
      bool ok = false;
      client += time_us([&] { ok = crypto_.complete(response); });
      p.add("handshake_client", client);
      if (!ok) ++p.failures;
    }
  }

  void round() {
    auto& p = p_;
    auto& server = server_;
    const auto key = std::span<const std::uint8_t>(crypto_.session_mac_key());
    for (const std::uint32_t idx : picks_) {
      const PoolEntry& entry = in_.pool[idx];
      auto& fastest = p.by_entry[idx];
      const auto keep = [&](const std::string& name, double us) {
        const auto [it, fresh] = fastest.emplace(name, us);
        if (!fresh) it->second = std::min(it->second, us);
      };
      const auto request =
          ms::net::make_envelope(request_type(entry), crypto_.session_id(),
                                 kProbeDevice, entry.payload, key,
                                 crypto_.next_counter());
      ms::net::Envelope response;
      keep("handle", time_us([&] { response = server.handle(request); }));
      if (!matches_expected(entry, response)) {
        ++p.failures;
        if (p.notes.size() < 8)
          p.notes.push_back("probe response differs for pool entry " +
                            std::to_string(idx));
      }
      last_request_ = request;
      last_response_ = response;
      responses_[idx] = response;

      // Stages of serve_upload / serve_auth_pass, in handle()'s order.
      bool verified = false;
      keep("verify_envelope", time_us([&] {
             verified = ms::net::verify_envelope(request, key);
           }));
      if (!verified) ++p.failures;
      ms::net::AuthPassPayload pass;
      if (entry.auth)
        pass = ms::net::AuthPassPayload::deserialize(request.payload);
      else
        pass.upload =
            ms::net::SignalUploadPayload::deserialize(request.payload);
      // Each stage's result goes into a fresh object, so freeing an
      // earlier result stays out of the timed call (in handle() such
      // frees fall into "other").
      std::vector<std::uint8_t> raw;
      if (pass.upload.compressed)
        keep("decompress", time_us([&] {
               raw = ms::compress::decompress(pass.upload.data);
             }));
      else
        raw = pass.upload.data;
      ms::util::MultiChannelSeries series;
      keep("deserialize_series",
           time_us([&] { series = ms::net::deserialize_series(raw); }));
      if (!entry.auth) {
        ms::cloud::QualityReport quality;
        keep("quality",
             time_us([&] { quality = ms::cloud::assess_quality(series); }));
      }
      ms::core::PeakReport report;
      keep("analyze",
           time_us([&] { report = server.analysis().analyze(series); }));
      if (entry.auth) {
        const auto peaks = plaintext_peaks(report);
        keep("authenticate", time_us([&] {
               (void)server.verifier().authenticate_peaks(
                   peaks, pass.volume_ul, server.enrollments(),
                   pass.duration_s);
             }));
      }
    }
  }

  /// After the load: more rounds while the in-load calls read faster than
  /// their re-runs (a slow spell of the host), then the derived figures
  /// and the remaining layers.
  ProbeResult finish(const fs::path& work, std::size_t request_payload_bytes,
                     const std::vector<InLoadCall>& in_load) {
    auto& p = p_;
    auto& server = server_;
    const auto& in = in_;
    for (int retry = 0; retry < 3 && paired_wait(in_load, p) < 0.0; ++retry)
      round();

    for (auto& [idx, fastest] : p.by_entry) {
      const PoolEntry& entry = in.pool[idx];
      const std::string kind = entry.auth ? "auth" : "upload";
      double stages = 0.0;
      for (const auto& [name, us] : fastest) {
        p.add(kind + "." + name, us);
        if (name != "handle") stages += us;
      }
      fastest["other"] = fastest["handle"] - stages;
      p.add(kind + ".other", fastest["other"]);
      if (entry.auth) continue;

      // Client-side layers on the same request, once: the relay's
      // serialize + compress, and the controller's decode.
      const auto upload =
          ms::net::SignalUploadPayload::deserialize(entry.payload);
      const auto series = ms::net::deserialize_series(
          upload.compressed ? ms::compress::decompress(upload.data)
                            : upload.data);
      const auto report = server.analysis().analyze(series);
      std::size_t samples = 0, peaks = 0;
      for (const auto& ch : series.channels) samples += ch.size();
      for (const auto& ch : report.channels) peaks += ch.peaks.size();
      p.add("analysis.samples_per_s",
            static_cast<double>(samples) / (fastest["analyze"] / 1e6));
      p.add("analysis.peaks", static_cast<double>(peaks));
      std::vector<std::uint8_t> reserialized;
      p.add("serialize_series", time_us([&] {
              reserialized = ms::net::serialize_series(series);
            }));
      std::vector<std::uint8_t> packed;
      p.add("compress", time_us([&] {
              packed = ms::compress::compress(reserialized);
            }));
      p.add("compress.ratio", static_cast<double>(reserialized.size()) /
                                  static_cast<double>(packed.size()));
      const bool assay_entry =
          series.carrier_frequencies_hz.size() == assay_carriers().size();
      const auto setup =
          sensor_setup(assay_entry ? assay_carriers()
                                   : std::vector<double>{kSmallCarrierHz});
      ms::core::Controller controller(
          setup.key_params, setup.design,
          ms::core::DiagnosticProfile::cd4_staging(), entry.controller_seed);
      (void)controller.begin_session(entry.duration_s);
      p.add("conclude", time_us([&] {
              (void)controller.conclude(
                  ms::core::PeakReport::deserialize(responses_[idx].payload));
            }));
    }

    // Replays and rejections, single-threaded.
    const int repeats = in.tiny ? 4 : 32;
    for (int i = 0; i < repeats && last_request_.payload.size() > 0; ++i) {
      ms::net::Envelope response;
      p.add("replay.handle",
            time_us([&] { response = server.handle(last_request_); }));
      if (!same_envelope(response, last_response_)) ++p.failures;
      auto tampered = last_request_;
      tampered.counter = crypto_.next_counter();
      tampered.mac[0] ^= 0x01;
      p.add("rejected.handle",
            time_us([&] { response = server.handle(tampered); }));
      if (error_code(response) != ms::net::ErrorCode::kBadMac) ++p.failures;
    }

    // Durability: store_result on the probe code, a scratch journal at the
    // workload's record size, and one explicit compaction.
    const std::size_t record_bytes =
        last_response_.payload.empty() ? 256 : last_response_.payload.size();
    for (int i = 0; i < repeats; ++i) {
      p.add("store_result", time_us([&] {
              server.store_result(in.codes.back(),
                                  {(1ull << 61) + static_cast<std::uint64_t>(i),
                                   last_response_.payload});
            }));
    }
    {
      const auto path = (work / "scratch.wal").string();
      fs::remove(path);
      ms::cloud::Journal journal(path, {/*fsync_each_append=*/true});
      const std::vector<std::uint8_t> payload(record_bytes + 64, 0xA5);
      for (int i = 0; i < repeats; ++i)
        p.add("journal_append", time_us([&] {
                (void)journal.append(
                    ms::cloud::JournalRecordType::kRecordStored, payload);
              }));
    }
    fs::remove(work / "scratch.wal");
    p.add("compact_ms",
          time_us([&] { svc_.durable->compact(server); }) / 1000.0);

    // Crypto primitives at the workload's sizes.
    {
      const std::vector<std::uint8_t> mac_key(32, 0x3C);
      const std::vector<std::uint8_t> message(
          std::max<std::size_t>(request_payload_bytes, 64), 0x5A);
      std::size_t bytes = 0;
      const double t0 = now_us();
      while (now_us() - t0 < 20000.0) {
        (void)ms::crypto::hmac_sha256(mac_key, message);
        bytes += message.size();
      }
      p.add("crypto.hmac_MBps", static_cast<double>(bytes) / (now_us() - t0));
    }
    {
      std::array<std::uint8_t, 16> aes_key{};
      aes_key.fill(0x17);
      std::vector<std::uint8_t> record(record_bytes + 64, 0x11);
      std::size_t bytes = 0;
      std::uint64_t nonce = 1;
      const double t0 = now_us();
      while (now_us() - t0 < 20000.0) {
        ms::crypto::Aes128Ctr ctr(aes_key, nonce++);
        ctr.apply(record);
        bytes += record.size();
      }
      p.add("crypto.aes_ctr_MBps",
            static_cast<double>(bytes) / (now_us() - t0));
    }
    {
      const std::vector<std::uint8_t> device(16, 0x42);
      const std::vector<std::uint8_t> context(32, 0x24);
      for (int i = 0; i < repeats; ++i)
        p.add("crypto.cmac_kdf_us", time_us([&] {
                (void)ms::crypto::kdf_cmac(device, "medsen-ses-mac", context,
                                           32);
              }));
    }
    return p;
  }

 private:
  const Inputs& in_;
  Service& svc_;
  ms::cloud::CloudServer& server_;
  ms::core::SessionCrypto crypto_;
  ProbeResult p_;
  std::vector<std::uint32_t> picks_;  ///< accepted pool entries
  std::uint64_t session_ = 1ull << 60;
  std::map<std::uint32_t, ms::net::Envelope> responses_;
  ms::net::Envelope last_request_, last_response_;
};

/// Everything a measured run produced, from which the metrics are made.
struct Measured {
  std::vector<double> setup_s;
  double setup_rss_mb = 0.0;
  WorkerResult total;  ///< all clients merged (spans stay per client)
  std::size_t envelope_overhead = 0;
  double load_s = 0.0;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  /// Server counters summed over the load's stretches (not the probe's).
  std::uint64_t replays = 0, counter_rejections = 0, errors = 0, shed = 0,
                evictions = 0;
  std::uint64_t lsn0 = 0, lsn1 = 0;
  double disk_per_write = 0.0;  ///< journal bytes per load record
  std::uint64_t disk_writes = 0;  ///< load records it is measured over

  /// Mean request payload (serialized envelope minus its fixed framing).
  [[nodiscard]] double request_payload_bytes() const {
    return total.request_count == 0
               ? 0.0
               : static_cast<double>(total.uplink_bytes) /
                         static_cast<double>(total.request_count) -
                     static_cast<double>(envelope_overhead);
  }
};

WorkerResult merge(const std::vector<WorkerResult>& results) {
  WorkerResult total;
  for (const auto& r : results) {
    total.latency_ms.insert(total.latency_ms.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
    total.attempted += r.attempted;
    total.commands += r.commands;
    total.failed += r.failed;
    for (int k = 0; k < kOpKinds; ++k) {
      total.by_kind[k] += r.by_kind[k];
      total.failed_by_kind[k] += r.failed_by_kind[k];
    }
    total.uplink_bytes += r.uplink_bytes;
    total.request_count += r.request_count;
    total.traced_ops += r.traced_ops;
    total.untraced_ops += r.untraced_ops;
    for (const auto& f : r.failures)
      if (total.failures.size() < 16) total.failures.push_back(f);
  }
  std::sort(total.latency_ms.begin(), total.latency_ms.end());
  return total;
}

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  const auto& lat = m.total.latency_ms;
  const auto n = std::to_string(lat.size()) + " fresh-work commands";
  const auto beyond = [&](double q) {
    return std::to_string(static_cast<std::size_t>(
               (1.0 - q) * static_cast<double>(lat.size()))) +
           " beyond";
  };
  std::vector<Metric> metrics;
  const auto [fastest, slowest] =
      std::minmax_element(m.setup_s.begin(), m.setup_s.end());
  metrics.push_back({"setup_s", median(m.setup_s), "s",
                     std::to_string(m.setup_s.size()) + " set-ups, " +
                         std::to_string(*fastest) + " to " +
                         std::to_string(*slowest) + " s"});
  metrics.push_back({"throughput_per_s",
                     static_cast<double>(m.total.commands) / m.load_s, "1/s",
                     std::to_string(m.total.commands) + " commands in " +
                         json_number(m.load_s) + " s"});
  metrics.push_back({"latency_p95_ms", percentile(lat, 0.95), "ms",
                     n + ", " + beyond(0.95)});
  // Printed for reading only, not in BENCHMARK.json: the fleet's median
  // moved 8-22% between seeds with the host's load (its p95 3-8%), and an
  // assay run has too few samples beyond p99.
  for (const double q : {0.50, 0.90, 0.99})
    std::printf("  latency_p%02.0f_ms %.6g ms (%s, %s)\n", q * 100.0,
                percentile(lat, q), n.c_str(), beyond(q).c_str());
  metrics.push_back({"uplink_bytes_per_op",
                     static_cast<double>(m.total.uplink_bytes) /
                         static_cast<double>(m.total.attempted),
                     "bytes", std::to_string(m.total.attempted) + " ops"});
  metrics.push_back({"disk_bytes_per_op", m.disk_per_write, "bytes",
                     std::to_string(m.disk_writes) +
                         " journal records appended by the load"});
  metrics.push_back({"setup_peak_rss_mb", m.setup_rss_mb, "MB",
                     "first set-up, above the loaded inputs"});
  return metrics;
}

/// Per-layer metrics of a traced run: in-load span medians where the
/// workload's ops make the call, otherwise the single-threaded probe pass.
std::vector<Metric> per_layer_metrics(const Measured& m,
                                      const std::vector<WorkerResult>& results,
                                      const ProbeResult& probe) {
  std::vector<const SpanLog*> logs;
  for (const auto& r : results) logs.push_back(&r.spans);
  std::vector<Metric> metrics;
  const auto from_probe = [&](const std::string& probe_name,
                              double scale) -> Metric {
    const auto it = probe.samples.find(probe_name);
    const std::size_t n = it == probe.samples.end() ? 0 : it->second.size();
    return {"", probe.med(probe_name) * scale, "",
            "probe, n=" + std::to_string(n)};
  };
  const auto from_spans = [&](std::vector<double> d,
                              const std::string& probe_name,
                              double scale) -> Metric {
    if (d.empty()) return from_probe(probe_name, scale);
    return {"", median(d) * scale, "", "load, n=" + std::to_string(d.size())};
  };
  const auto load_or_probe = [&](const std::string& span, int kind,
                                 const std::string& probe_name,
                                 double scale) {
    return from_spans(durations(logs, span, kind), probe_name, scale);
  };
  const auto add = [&](const std::string& name, Metric metric,
                       const std::string& unit) {
    metric.name = name;
    metric.unit = unit;
    metrics.push_back(std::move(metric));
  };
  const auto add_probe = [&](const std::string& name,
                             const std::string& probe_name, double scale,
                             const std::string& unit) {
    add(name, from_probe(probe_name, scale), unit);
  };
  const auto count = [&](const std::string& name, std::uint64_t n) {
    metrics.push_back({name, static_cast<double>(n), "count", "load"});
  };
  const int upload = static_cast<int>(OpKind::kUpload);

  add("compress.compress_ms",
      load_or_probe("compress", upload, "compress", 1e-3), "ms");
  add_probe("compress.decompress_ms", "upload.decompress", 1e-3, "ms");
  add_probe("compress.ratio", "compress.ratio", 1.0, "ratio");
  add("net.serialize_series_us",
      load_or_probe("serialize", upload, "serialize_series", 1.0), "us");
  add("net.make_envelope_us",
      load_or_probe("make_envelope", upload, "", 1.0), "us");
  add_probe("net.verify_envelope_us", "upload.verify_envelope", 1.0, "us");
  add_probe("net.deserialize_series_us", "upload.deserialize_series", 1.0,
            "us");
  metrics.push_back({"net.envelope_bytes",
                     m.request_payload_bytes() +
                         static_cast<double>(m.envelope_overhead),
                     "bytes",
                     "load, n=" + std::to_string(m.total.request_count)});

  const Metric in_load_upload =
      load_or_probe("handle", upload, "upload.handle", 1.0);
  add("cloud.handle_upload_us", in_load_upload, "us");
  add("cloud.handle_auth_pass_us",
      load_or_probe("handle", static_cast<int>(OpKind::kAuthPass),
                    "auth.handle", 1.0),
      "us");
  add("cloud.handle_handshake_us",
      load_or_probe("handle", static_cast<int>(OpKind::kHandshake),
                    "handshake_handle", 1.0),
      "us");
  add("cloud.handle_replay_us",
      load_or_probe("handle", static_cast<int>(OpKind::kReplay),
                    "replay.handle", 1.0),
      "us");
  std::vector<double> refused;
  for (const OpKind k : {OpKind::kBadMac, OpKind::kStaleCounter,
                         OpKind::kUnknownDevice, OpKind::kLegacy}) {
    const auto d = durations(logs, "handle", static_cast<int>(k));
    refused.insert(refused.end(), d.begin(), d.end());
  }
  add("cloud.handle_rejected_us",
      from_spans(std::move(refused), "rejected.handle", 1.0), "us");
  add_probe("cloud.handle_other_us", "upload.other", 1.0, "us");
  // Each in-load upload handle() paired with the probe's re-run of the
  // same pool entry: wait = in-load span minus the single-threaded call.
  const auto calls = in_load_uploads(results);
  const auto pairs = paired(calls, probe);
  metrics.push_back({"cloud.handle_wait_us", paired_wait(calls, probe), "us",
                     "in-load call minus its single-threaded re-run, n=" +
                         std::to_string(pairs.size())});
  add_probe("cloud.quality_us", "upload.quality", 1.0, "us");
  count("cloud.replays", m.replays);
  count("cloud.counter_rejections", m.counter_rejections);
  count("cloud.errors", m.errors);
  count("cloud.shed", m.shed);
  count("cloud.cache_evictions", m.evictions);

  add_probe("analysis.analyze_ms", "upload.analyze", 1e-3, "ms");
  add_probe("analysis.samples_per_s", "analysis.samples_per_s", 1.0,
            "samples/s");
  add_probe("analysis.peaks", "analysis.peaks", 1.0, "count");
  add_probe("auth.authenticate_us", "auth.authenticate", 1.0, "us");
  add("core.conclude_ms", load_or_probe("conclude", -1, "conclude", 1e-3),
      "ms");
  // Client half of a handshake: make_challenge + complete, per op.
  std::vector<double> client;
  for (const auto* log : logs) {
    std::map<std::uint64_t, double> per_op;
    for (const auto& span : log->spans())
      if (span.kind == OpKind::kHandshake &&
          (std::string(span.name) == "make_challenge" ||
           std::string(span.name) == "complete"))
        per_op[span.op] += span.end_us - span.start_us;
    for (const auto& [op, us] : per_op) client.push_back(us);
  }
  add("core.handshake_client_us",
      from_spans(std::move(client), "handshake_client", 1.0), "us");
  add("durability.store_result_us",
      load_or_probe("store_result", -1, "store_result", 1.0), "us");
  add_probe("durability.journal_append_us", "journal_append", 1.0, "us");
  metrics.push_back({"durability.journal_records_per_op",
                     static_cast<double>(m.lsn1 - m.lsn0) /
                         static_cast<double>(m.total.attempted),
                     "ratio", "load"});
  add_probe("durability.compact_ms", "compact_ms", 1.0, "ms");
  add_probe("durability.recover_ms", "recover_ms", 1.0, "ms");
  add_probe("durability.records_replayed", "records_replayed", 1.0, "count");
  add_probe("crypto.hmac_MBps", "crypto.hmac_MBps", 1.0, "MB/s");
  add_probe("crypto.aes_ctr_MBps", "crypto.aes_ctr_MBps", 1.0, "MB/s");
  add_probe("crypto.cmac_kdf_us", "crypto.cmac_kdf_us", 1.0, "us");

  const auto rate = [](std::uint64_t ops, double s) {
    return s > 0.0 ? static_cast<double>(ops) / s : 0.0;
  };
  const double traced = rate(m.total.traced_ops, m.traced_s);
  const double untraced = rate(m.total.untraced_ops, m.untraced_s);
  metrics.push_back({"trace.throughput_traced_per_s", traced, "1/s",
                     std::to_string(m.total.traced_ops) + " ops"});
  metrics.push_back({"trace.throughput_untraced_per_s", untraced, "1/s",
                     std::to_string(m.total.untraced_ops) + " ops"});
  metrics.push_back({"trace.overhead_share",
                     untraced > 0.0 ? 1.0 - traced / untraced : 0.0, "share",
                     "1 - traced/untraced throughput"});
  metrics.push_back({"process.peak_rss_mb", peak_rss_mb(), "MB",
                     "whole process, clients and inputs included"});

  // How the in-load upload handle() time divides, as means over the
  // paired calls (means add up): each call's stage self times and
  // remainder from the probe's re-run of its request, plus its wait.
  const auto mean = [&](const std::string& part) {
    double sum = 0.0;
    for (const auto& [us, times] : pairs) {
      const auto it = times->find(part);
      sum += part == "wait" ? us - times->at("handle")
             : it == times->end() ? 0.0
                                  : it->second;
    }
    return pairs.empty() ? 0.0 : sum / static_cast<double>(pairs.size());
  };
  double total = 0.0;
  for (const auto& [us, times] : pairs) total += us;
  std::printf("attribution of the mean in-load upload handle() = %.1f us "
              "(%zu calls; median %.1f us):\n",
              pairs.empty() ? 0.0 : total / static_cast<double>(pairs.size()),
              pairs.size(), in_load_upload.value);
  for (const char* part : {"verify_envelope", "decompress",
                           "deserialize_series", "quality", "analyze", "other",
                           "wait"})
    std::printf("  %-20s %10.1f us\n", part, mean(part));
  return metrics;
}

void write_spans(const fs::path& path,
                 const std::vector<WorkerResult>& results) {
  std::ofstream out(path);
  out << "thread\tindex\tname\tstart_us\tend_us\tparent\top\tkind\tentry\n";
  for (std::size_t t = 0; t < results.size(); ++t) {
    const auto& spans = results[t].spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
      out << t << '\t' << i << '\t' << spans[i].name << '\t'
          << spans[i].start_us << '\t' << spans[i].end_us << '\t'
          << spans[i].parent << '\t' << spans[i].op << '\t'
          << op_name(spans[i].kind) << '\t'
          << (spans[i].entry == kNoEntry ? -1
                                         : static_cast<long>(spans[i].entry))
          << '\n';
  }
}

/// Count acknowledged records that are missing or altered in `reopened`,
/// a fresh server over the state dir (ack => durable). Each code has a
/// single writer, so its records are the initial ones followed by its acks.
std::uint64_t lost_acks(const Inputs& in, const Service& reopened,
                        const std::vector<WorkerResult>& results) {
  std::map<std::uint32_t, std::vector<Ack>> acked;
  for (const auto& r : results)
    for (const auto& ack : r.acks) acked[ack.code].push_back(ack);
  std::uint64_t missing = 0;
  for (const auto& [code, acks] : acked) {
    const auto records = reopened.server->records().fetch(in.codes[code]);
    const std::size_t first = in.initial_count[code];
    for (std::size_t i = 0; i < acks.size(); ++i) {
      if (first + i >= records.size() ||
          records[first + i].session_id != acks[i].session_id ||
          records[first + i].encrypted_result !=
              in.pool[acks[i].pool].expected)
        ++missing;
    }
  }
  return missing;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const fs::path work = options.work;
  fs::remove_all(work);
  fs::create_directories(work);
  const Inputs in = Inputs::deserialize(ms::util::read_file(
      (fs::path(options.inputs) / "inputs.bin").string()));
  if (in.workload != options.workload) {
    std::fprintf(stderr, "perfbench_run: inputs are for workload %s\n",
                 in.workload.c_str());
    return 2;
  }
  Measured m;

  // --- Set-up: open a fresh copy of the generated state dir K times,
  // half of them before the load and, in untraced runs, the rest after
  // it, so their median spans the run's host conditions as the load's
  // figures do. The first server serves the load; the others are closed
  // again. Its memory is the first set-up's peak RSS above what the
  // process held before (the loaded inputs), so client-side state never
  // counts as the server's and allocator reuse does not blur it.
  if (!reset_peak_rss()) {
    std::fprintf(stderr,
                 "perfbench_run: cannot reset the peak RSS count "
                 "(/proc/self/clear_refs), so setup_peak_rss_mb cannot be "
                 "measured\n");
    return 2;
  }
  const double rss_before_setup = proc_status_mb("VmRSS:");
  const auto set_up = [&](Service& s) {
    const fs::path dir = work / ("state-" + std::to_string(m.setup_s.size()));
    fs::copy(fs::path(options.inputs) / "state", dir,
             fs::copy_options::recursive);
    // Write the copy back first: a restart finds its state on disk, and
    // the copy's dirty pages would otherwise be flushed by the first
    // fsync that open() makes, a cost that belongs to the copy.
    ::sync();
    const double t0 = now_us();
    s = open_service(dir.string(), in);
    m.setup_s.push_back((now_us() - t0) / 1e6);
    return dir;
  };
  const auto extra_set_up = [&] {
    Service extra;
    const fs::path dir = set_up(extra);
    close_service(extra);
    fs::remove_all(dir);
  };
  Service svc;
  const fs::path state = set_up(svc);
  m.setup_rss_mb = proc_status_mb("VmHWM:") - rss_before_setup;
  const int setups_before_load = (options.setups + 1) / 2;
  for (int i = 1; i < setups_before_load; ++i) extra_set_up();
  auto& server = *svc.server;

  Shared shared{in, server};
  shared.trace = options.trace;
  m.envelope_overhead =
      ms::net::make_envelope(ms::net::MessageType::kSignalUpload, 0, 0, {},
                             std::vector<std::uint8_t>{1})
          .serialize()
          .size();
  shared.envelope_overhead = m.envelope_overhead;
  std::vector<WorkerResult> results(in.scripts.size());
  std::vector<std::unique_ptr<Client>> clients;
  bool prepared = true;
  for (std::size_t w = 0; w < results.size(); ++w) {
    clients.push_back(make_client(options.workload, shared, w, results[w]));
    prepared = clients.back()->prepare() && prepared;
  }
  if (!prepared) {
    std::fprintf(stderr, "perfbench_run: client session set-up failed\n");
    return 1;
  }
  for (auto& r : results) r = WorkerResult{};  // set-up ops are not load

  // The probe's device session opens before the load (traced runs).
  std::unique_ptr<Probe> probe;
  if (options.trace) {
    probe = std::make_unique<Probe>(in, svc);
    probe->open();
  }

  // --- Load: closed loops for the measured seconds, alternating traced
  // and untraced 100 ms slices when tracing. Flush the dirty pages that
  // generation and the state copies left first, so background writeback
  // does not compete with the journal's fsyncs.
  ::sync();
  m.lsn0 = svc.durable->last_lsn();
  const std::string journal = svc.durable->journal_path();
  const std::uint64_t journal0 = fs::file_size(journal);
  const auto load = [&](double seconds) {
    const ms::cloud::ServiceStats stats0 = server.stats();
    const std::uint64_t evictions0 = server.session_cache().evictions();
    const double start = now_us();
    shared.stop.store(false);
    std::vector<std::thread> threads;
    for (auto& client : clients)
      threads.emplace_back([&client] { client->run(); });
    const double end = start + seconds * 1e6;
    double slice_start = start;
    while (now_us() < end) {
      const double slice_end = std::min(end, slice_start + 100000.0);
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(std::max(0.0, slice_end - now_us()))));
      if (now_us() < slice_end) continue;
      const double t = now_us();
      (shared.traced_slice.load() ? m.traced_s : m.untraced_s) +=
          (t - slice_start) / 1e6;
      if (options.trace) shared.traced_slice.store(!shared.traced_slice.load());
      slice_start = t;
    }
    shared.stop.store(true);
    for (auto& thread : threads) thread.join();
    m.load_s += (now_us() - start) / 1e6;
    const ms::cloud::ServiceStats stats1 = server.stats();
    m.replays += stats1.replays_served - stats0.replays_served;
    m.counter_rejections +=
        stats1.counter_rejections - stats0.counter_rejections;
    m.errors += stats1.errors_returned - stats0.errors_returned;
    m.shed += stats1.requests_shed - stats0.requests_shed;
    m.evictions += server.session_cache().evictions() - evictions0;
  };
  if (!probe) {
    load(options.seconds);
  } else {
    // The load runs in stretches, each followed by one probe round with
    // the clients stopped, so in-load calls and their single-threaded
    // re-runs share the host's fast and slow spells. The probe runs on a
    // thread of its own, as the clients do, so its calls use the same
    // kind of malloc arena.
    for (int r = 0; r < Probe::kRounds; ++r) {
      load(options.seconds / Probe::kRounds);
      std::thread([&] { probe->round(); }).join();
    }
  }
  m.lsn1 = svc.durable->last_lsn();
  const std::uint64_t journal1 = fs::file_size(journal);
  if (!options.trace)
    for (int i = setups_before_load; i < options.setups; ++i) extra_set_up();
  m.total = merge(results);

  std::uint64_t failed = m.total.failed;
  std::vector<std::string> findings = m.total.failures;
  std::vector<Metric> metrics;
  if (options.trace) {
    const auto calls = in_load_uploads(results);
    ProbeResult probed;
    std::thread([&] {
      probed = probe->finish(
          work, static_cast<std::size_t>(m.request_payload_bytes()), calls);
    }).join();
    probed.add("recover_ms", svc.recovery.replay_ms);
    probed.add("records_replayed",
               static_cast<double>(svc.recovery.records_replayed));
    failed += probed.failures;
    findings.insert(findings.end(), probed.notes.begin(), probed.notes.end());
    metrics = per_layer_metrics(m, results, probed);
    if (const double wait = paired_wait(calls, probed); wait < 0.0) {
      // The single-threaded re-run took longer than the same calls under
      // load: it did not reproduce the in-load work, so its stage times do
      // not attribute cloud.handle_upload_us.
      findings.push_back(
          "attribution: single-threaded handle() slower than in load "
          "(cloud.handle_wait_us " + json_number(wait) + " us)");
      ++failed;
    }
    write_spans(work / "spans.tsv", results);
  }

  // --- Every acknowledged record must survive a restart.
  close_service(svc);
  Service reopened = open_service(state.string(), in);
  if (const std::uint64_t missing = lost_acks(in, reopened, results)) {
    findings.push_back("ack=>durable: " + std::to_string(missing) +
                       " acknowledged records missing after reopen");
    failed += missing;
  }
  if (!options.trace) {
    // Journal bytes per record the load appended. An auto-compaction
    // during the load truncates the journal to its 16-byte header; then
    // the journal holds only load records, as many as the reopen replayed.
    const std::uint64_t appended = m.lsn1 - m.lsn0;
    const std::uint64_t held = reopened.recovery.records_replayed;
    const bool compacted = held < appended;
    m.disk_writes = compacted ? held : appended;
    if (m.disk_writes == 0) {
      std::fprintf(stderr, "perfbench_run: no journal record to measure "
                           "disk_bytes_per_op on\n");
      return 2;
    }
    m.disk_per_write =
        static_cast<double>(compacted ? journal1 - kJournalHeaderBytes
                                      : journal1 - journal0) /
        static_cast<double>(m.disk_writes);
    metrics = end_to_end_metrics(m);
  }
  close_service(reopened);

  // --- Report: a readable summary, then the JSON result line.
  std::printf("workload %s, seed %llu, %zu clients, %.2f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(in.seed), results.size(),
              m.load_s, options.trace ? 1 : 0);
  for (int k = 0; k < kOpKinds; ++k)
    if (m.total.by_kind[k] > 0)
      std::printf("  ops %-15s %10llu  failed %llu\n",
                  op_name(static_cast<OpKind>(k)),
                  static_cast<unsigned long long>(m.total.by_kind[k]),
                  static_cast<unsigned long long>(m.total.failed_by_kind[k]));
  std::printf("  failed_share %.6g (%llu of %llu)\n",
              static_cast<double>(failed) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, m.total.attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(m.total.attempted));
  for (const auto& f : findings) std::printf("  FAILED %s\n", f.c_str());
  for (const auto& metric : metrics)
    std::printf("  %-36s %16.6g %-10s (%s)\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.note.c_str());

  std::string json = "{\"correct\": " +
                     std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(m.total.attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
