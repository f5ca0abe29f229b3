// Cloud restart survivability: state a server journals through its
// DurableState must be fully usable by a fresh instance recovered from
// the same directory — including authenticating a real sensor pass
// against the recovered database.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cloud/durability.h"
#include "cloud/server.h"
#include "core/controller.h"
#include "core/encryptor.h"
#include "phone/relay.h"
#include "session_fixture.h"
#include "util/fileio.h"

namespace medsen {
namespace {

/// A state directory emptied of any earlier run's files.
std::string fresh_dir(const char* name) {
  const auto dir =
      std::string(::testing::TempDir()) + "/medsen_restart_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

cloud::DurabilityConfig config_for(const std::string& dir) {
  cloud::DurabilityConfig config;
  config.dir = dir;
  config.storage_key = std::vector<std::uint8_t>(16, 0x3C);
  return config;
}

/// One server process lifetime: a CloudServer recovered from (and from
/// then on journaling to) the state directory. Members destruct in
/// reverse order, so the server goes before the journal it points at.
struct Lifetime {
  cloud::DurableState durable;
  cloud::CloudServer server;

  explicit Lifetime(const std::string& dir)
      : durable(config_for(dir)),
        server(cloud::AnalysisConfig{}, auth::CytoAlphabet{},
               auth::ParticleClassifier::train({})) {
    server.attach_durability(durable);
  }
};

TEST(Restart, AuthenticationSurvivesServerRestart) {
  const auto dir = fresh_dir("auth");
  auth::CytoAlphabet alphabet;
  auth::CytoCode code;
  code.levels = {2, 1};

  // --- First server lifetime: enroll and store, both journaled.
  {
    Lifetime first(dir);
    first.server.enroll_user("alice", code);
    first.server.store_result(code, {1, {0xAA, 0xBB}});
  }

  // --- Second lifetime: fresh process state, recovered from disk.
  Lifetime second(dir);
  auto& server = second.server;
  EXPECT_EQ(server.enrollments().lookup(code), "alice");
  EXPECT_EQ(server.records().latest(code)->session_id, 1u);

  // --- A real authentication pass against the reloaded state.
  const auto design = sim::standard_design(9);
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(), 3);
  const double duration = 120.0;
  (void)controller.begin_plaintext_session(duration);

  sim::ChannelConfig channel;
  channel.loss.enabled = false;
  sim::AcquisitionConfig acquisition;
  acquisition.noise_sigma = 5e-5;
  acquisition.drift.slow_amplitude = 0.002;
  acquisition.drift.random_walk_sigma = 1e-6;
  core::SensorEncryptor encryptor(design, channel, acquisition);
  sim::SampleSpec sample;
  sample.components = auth::encode_mixture(alphabet, code);
  const auto enc = encryptor.acquire(
      sample, controller.session_key_schedule_for_testing(), duration, 7);

  phone::PhoneRelay relay;
  auto crypto = test_support::open_session(server, relay.config().device_id);
  const auto response = relay.relay_auth(
      enc.signals, controller.session_volume_ul(), server, crypto, duration);
  const auto decision =
      net::AuthDecisionPayload::deserialize(response.payload);
  EXPECT_TRUE(decision.authenticated);
  EXPECT_EQ(decision.user_id, "alice");
}

// The keying plane across a restart: the device registry (master epochs,
// enrollment/revocation) is journaled and recovers, but negotiated
// sessions deliberately do NOT — the restarted server answers in-session
// traffic with kAuthRequired and the device re-handshakes, with counter
// state starting fresh under the new session key.
TEST(Restart, SessionsDieButRegistrySurvivesRestart) {
  const auto dir = fresh_dir("registry");
  const auto design = sim::standard_design(9);
  core::KeyParams params;
  params.num_electrodes = 9;
  core::Controller controller(params, design,
                              core::DiagnosticProfile::cd4_staging(), 3);
  phone::PhoneRelay relay;

  util::MultiChannelSeries series;
  series.carrier_frequencies_hz = {5.0e5};
  util::TimeSeries ts(450.0);
  for (std::size_t i = 0; i < 9000; ++i) {
    const double t = static_cast<double>(i) / 450.0;
    const double z = (t - 5.0) / 0.008;
    double v = 1.0 - 0.01 * std::exp(-0.5 * z * z);
    v += 1e-5 * static_cast<double>(static_cast<int>((i * 7) % 11) - 5);
    ts.push_back(v);
  }
  series.channels.push_back(std::move(ts));

  // --- First lifetime: enroll, handshake, run session commands (the
  // registry is journaled; sessions are not persisted by design).
  {
    Lifetime first(dir);
    auto& server = first.server;
    test_support::arm(server, controller, relay.config().device_id);
    server.enroll_device(99);

    ASSERT_TRUE(relay.establish_session(controller, 100, server));
    const auto response =
        relay.relay_analysis(series, server, *controller.session_crypto());
    ASSERT_EQ(response.type, net::MessageType::kAnalysisResult);
    EXPECT_EQ(response.counter, 1u);
  }

  // --- Second lifetime: recover the registry into a fresh server.
  Lifetime second(dir);
  auto& server = second.server;
  EXPECT_EQ(server.devices().current_epoch(), test_support::kEpoch);
  EXPECT_TRUE(server.devices().lookup(99).has_value());

  // The old session died with the process: its counters resume mid-way
  // and the server, holding no session, demands a fresh handshake.
  auto& crypto = *controller.session_crypto();
  ASSERT_TRUE(crypto.active());
  const auto stale = relay.relay_analysis(series, server, crypto);
  ASSERT_EQ(stale.type, net::MessageType::kError);
  EXPECT_EQ(net::ErrorPayload::deserialize(stale.payload).code,
            net::ErrorCode::kAuthRequired);

  // Re-handshake against the recovered registry; counters restart at 1.
  ASSERT_TRUE(relay.establish_session(controller, 101, server));
  const auto fresh = relay.relay_analysis(series, server, crypto);
  ASSERT_EQ(fresh.type, net::MessageType::kAnalysisResult);
  EXPECT_EQ(fresh.counter, 1u);
  EXPECT_TRUE(net::verify_envelope(fresh, crypto.session_mac_key()));
}

// A crash between writing a compaction snapshot and renaming it into
// place must not destroy the previous good snapshot. Snapshots go
// through write_file_atomic (a sibling .tmp, then rename), so the worst
// a crash can leave behind is a truncated .tmp next to an intact live
// file — and the next boot discards the .tmp.
TEST(Restart, TornWriteLeavesPreviousDatabaseLoadable) {
  const auto dir = fresh_dir("torn");
  auth::CytoCode bob{{1, 2}};
  auth::CytoCode carol{{2, 2}};

  std::string snapshot;
  {
    Lifetime first(dir);
    first.server.enroll_user("bob", bob);
    first.durable.compact(first.server);
    snapshot = first.durable.snapshot_path();
  }

  // Simulate a crash mid-compaction: a later snapshot write got as far
  // as a truncated temp file and died before the rename.
  {
    const auto good = util::read_file(snapshot);
    std::vector<std::uint8_t> torn(good.begin(),
                                   good.begin() + good.size() / 2);
    util::write_file(snapshot + ".tmp", torn);
  }

  // The live snapshot is untouched and still recovers; the torn temp
  // file is dropped at boot. A later compaction replaces the snapshot
  // and leaves no stale .tmp behind.
  {
    Lifetime second(dir);
    EXPECT_EQ(second.server.enrollments().lookup(bob), "bob");
    EXPECT_FALSE(util::file_exists(snapshot + ".tmp"));
    second.server.enroll_user("carol", carol);
    second.durable.compact(second.server);
    EXPECT_FALSE(util::file_exists(snapshot + ".tmp"));
  }
  Lifetime third(dir);
  EXPECT_EQ(third.server.enrollments().lookup(bob), "bob");
  EXPECT_EQ(third.server.enrollments().lookup(carol), "carol");
}

}  // namespace
}  // namespace medsen
