// cloud::DurableState end-to-end: WAL-backed server state survives
// restart, compaction preserves exactly the journal's effects in one
// state.snap, a crash inside compaction recovers wholly before or wholly
// after it, handshake ordinals never rewind, sealing keeps secret bytes
// off the disk, and corrupt or retired state surfaces as the typed
// PersistenceError.

#include "cloud/durability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cloud/persistence.h"
#include "cloud/server.h"
#include "compress/crc32.h"
#include "core/session_crypto.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "net/messages.h"
#include "util/crash_point.h"
#include "util/fileio.h"

namespace medsen::cloud {
namespace {

constexpr std::uint64_t kDevice = 7;

std::string temp_dir(const char* name) {
  const auto dir =
      std::string(::testing::TempDir()) + "/medsen_durability_" + name;
  return dir;
}

void remove_state(const std::string& dir) { std::filesystem::remove_all(dir); }

/// The names of every file in the state directory, sorted.
std::set<std::string> state_files(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    names.insert(entry.path().filename().string());
  return names;
}

const std::set<std::string> kCompactedFiles = {"journal.wal", "seal.epoch",
                                               "state.snap"};

std::vector<std::uint8_t> storage_key() {
  return std::vector<std::uint8_t>(16, 0x7E);
}

std::vector<std::uint8_t> master_key(std::uint8_t fill) {
  return std::vector<std::uint8_t>(16, fill);
}

DurabilityConfig config_for(const std::string& dir) {
  DurabilityConfig config;
  config.dir = dir;
  config.storage_key = storage_key();
  return config;
}

/// One server lifetime: a DurableState and a CloudServer recovered from
/// it. Destroying the rig and booting a new one from the same dir is the
/// unit-test version of a process restart.
struct Rig {
  std::unique_ptr<DurableState> durable;  // outlives the server
  std::unique_ptr<CloudServer> server;
  RecoveryStats recovery;

  explicit Rig(DurabilityConfig config) {
    durable = std::make_unique<DurableState>(std::move(config));
    server = std::make_unique<CloudServer>(
        AnalysisConfig{}, auth::CytoAlphabet{},
        auth::ParticleClassifier::train({}));
    recovery = server->attach_durability(*durable);
  }
  ~Rig() { server.reset(); }  // server first: it points at durable
};

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

/// Is `needle` a contiguous subsequence of any file in the state dir
/// (stranded .tmp files included)?
bool on_disk(const std::string& dir, std::span<const std::uint8_t> needle) {
  for (const auto& name : state_files(dir)) {
    const auto bytes = util::read_file(dir + "/" + name);
    if (std::search(bytes.begin(), bytes.end(), needle.begin(),
                    needle.end()) != bytes.end())
      return true;
  }
  return false;
}

/// The full logical state of a server, as the snapshot codec sees it.
std::vector<std::uint8_t> state_of(CloudServer& server) {
  return encode_state_body(server.records(), server.enrollments(),
                           server.devices(), server.sessions());
}

// ---- sealing-nonce extraction (outside-in, per docs/PROTOCOL.md) ----

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(le32(p)) |
         (static_cast<std::uint64_t>(le32(p + 4)) << 32);
}

/// The CTR nonce of a snapshot container's sealed body
/// (u32 magic | u32 ver | u32 crc | blob(u64 lsn | blob(u8 1 | u64
/// nonce | ct))), or nullopt if the file is torn or unsealed.
std::optional<std::uint64_t> snapshot_nonce(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 16) return std::nullopt;
  const std::uint32_t outer_len = le32(bytes.data() + 12);
  if (outer_len < 12 || outer_len > bytes.size() - 16) return std::nullopt;
  const std::uint8_t* outer = bytes.data() + 16;
  const std::uint32_t flagged_len = le32(outer + 8);
  if (flagged_len < 9 || flagged_len > outer_len - 12) return std::nullopt;
  if (outer[12] != 1) return std::nullopt;  // not sealed
  return le64(outer + 13);
}

/// Every CRC-complete journal record body (u64 lsn | u8 type | sealed
/// payload).
std::vector<std::vector<std::uint8_t>> journal_bodies(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::vector<std::uint8_t>> bodies;
  std::size_t offset = 16;  // file header
  while (offset + 8 <= bytes.size()) {
    const std::uint32_t len = le32(bytes.data() + offset);
    const std::uint32_t crc = le32(bytes.data() + offset + 4);
    if (len > bytes.size() - offset - 8) break;
    const std::span<const std::uint8_t> body{bytes.data() + offset + 8, len};
    if (compress::crc32(body) != crc) break;
    bodies.emplace_back(body.begin(), body.end());
    offset += 8 + len;
  }
  return bodies;
}

/// Every CTR nonce in a journal's CRC-complete sealed records.
std::vector<std::uint64_t> journal_nonces(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint64_t> nonces;
  // body = u64 lsn | u8 type | u8 flag | u64 nonce | ciphertext
  for (const auto& body : journal_bodies(bytes))
    if (body.size() >= 9 + 9 && body[9] == 1)
      nonces.push_back(le64(body.data() + 10));
  return nonces;
}

/// AES-128-CTR under the seal key every 16-byte storage key derives:
/// KDF(storage_key, "medsen-store"). Applying it twice is the identity.
std::vector<std::uint8_t> ctr_under_seal_key(std::vector<std::uint8_t> data,
                                             std::uint64_t nonce) {
  const auto seal_key =
      crypto::kdf_cmac(storage_key(), "medsen-store", {}, 16);
  crypto::Aes128Ctr ctr(
      std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
          seal_key.data(), crypto::Aes128::kKeySize),
      nonce);
  ctr.apply(data);
  return data;
}

/// A sealed journal payload built from the outside: u8 1 | u64 nonce |
/// ciphertext. Nonce epoch 0 is never issued by a boot.
std::vector<std::uint8_t> sealed_payload(std::vector<std::uint8_t> plain) {
  constexpr std::uint64_t kNonce = 7;
  std::vector<std::uint8_t> out = {1, kNonce, 0, 0, 0, 0, 0, 0, 0};
  const auto ct = ctr_under_seal_key(std::move(plain), kNonce);
  out.insert(out.end(), ct.begin(), ct.end());
  return out;
}

TEST(Durability, StateSurvivesRestartViaJournalReplay) {
  const auto dir = temp_dir("replay");
  remove_state(dir);

  const auto code = code_of({2, 1});
  {
    Rig rig(config_for(dir));
    EXPECT_EQ(rig.recovery.records_replayed, 0u);
    rig.server->enroll_device(3);
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("alice", code);
    rig.server->store_result(code, {11, {0xAA, 0xBB}});
    rig.server->store_result(code, {12, {0xCC}});
    EXPECT_TRUE(rig.server->revoke_device(3));
  }

  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.records_replayed, 7u);
  EXPECT_EQ(rig.recovery.stored_records, 2u);
  EXPECT_EQ(rig.recovery.user_enrollments, 1u);
  EXPECT_EQ(rig.recovery.registry_events, 4u);
  EXPECT_FALSE(rig.recovery.tail_truncated);
  EXPECT_GE(rig.recovery.replay_ms, 0.0);

  EXPECT_EQ(rig.server->enrollments().lookup(code), "alice");
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, 11u);
  EXPECT_EQ(records[1].session_id, 12u);
  EXPECT_TRUE(rig.server->devices().is_revoked(3));
  EXPECT_FALSE(rig.server->devices().is_revoked(kDevice));
  EXPECT_TRUE(
      rig.server->devices().lookup_epoch(kDevice, 1).has_value());
  remove_state(dir);
}

TEST(Durability, CompactionPreservesStateAndTruncatesJournal) {
  const auto dir = temp_dir("compact");
  remove_state(dir);

  const auto code = code_of({1, 2});
  {
    Rig rig(config_for(dir));
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("bob", code);
    rig.server->store_result(code, {21, {0x01}});
    rig.durable->compact(*rig.server);
    // One snapshot holds every store; nothing else is left beside it.
    EXPECT_EQ(state_files(dir), kCompactedFiles);
    // Post-compaction mutations land in the (now short) journal.
    rig.server->store_result(code, {22, {0x02}});
  }

  Rig rig(config_for(dir));
  EXPECT_TRUE(rig.recovery.snapshots_loaded);
  // Only the post-compaction record replays from the journal.
  EXPECT_EQ(rig.recovery.stored_records, 1u);
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, 21u);
  EXPECT_EQ(records[1].session_id, 22u);
  EXPECT_EQ(rig.server->enrollments().lookup(code), "bob");
  remove_state(dir);
}

TEST(Durability, AutoCompactionTriggersAtThreshold) {
  const auto dir = temp_dir("autocompact");
  remove_state(dir);
  DurabilityConfig config = config_for(dir);
  config.compact_after_records = 4;
  {
    Rig rig(config);
    const auto code = code_of({2, 2});
    rig.server->rotate_master_key(1, master_key(0x11));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("carol", code);
    rig.server->store_result(code, {1, {0x01}});  // 4th append: compacts
    EXPECT_TRUE(util::file_exists(rig.durable->snapshot_path()));
    EXPECT_EQ(rig.durable->last_recovery().records_replayed, 0u);
  }
  Rig rig(config);
  EXPECT_TRUE(rig.recovery.snapshots_loaded);
  EXPECT_EQ(rig.server->records().record_count(), 1u);
  remove_state(dir);
}

TEST(Durability, HandshakeOrdinalsNeverRewindAcrossRestart) {
  const auto dir = temp_dir("handshake");
  remove_state(dir);

  const auto device_key = crypto::diversify_device_key(master_key(0x5A),
                                                       kDevice, 1);
  const auto rnd_b_of = [&](Rig& rig, std::uint64_t session) {
    core::SessionCrypto crypto(kDevice, device_key, 1, 0x1234);
    const auto response = rig.server->handle(crypto.make_challenge(session));
    EXPECT_EQ(response.type, net::MessageType::kAuthResponse);
    const auto payload = net::AuthResponsePayload::deserialize(
        response.payload);
    return std::vector<std::uint8_t>(payload.challenge.begin(),
                                     payload.challenge.end());
  };

  std::vector<std::vector<std::uint8_t>> nonces;
  {
    Rig rig(config_for(dir));
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    nonces.push_back(rnd_b_of(rig, 100));
    nonces.push_back(rnd_b_of(rig, 101));
  }
  {
    // Restart replays the kHandshake marks: the same device-side RndA
    // must get a FRESH RndB, not a replay of nonce #1.
    Rig rig(config_for(dir));
    EXPECT_GE(rig.recovery.handshake_marks, 2u);
    nonces.push_back(rnd_b_of(rig, 102));
    // Compaction folds the ordinal into state.snap.
    rig.durable->compact(*rig.server);
  }
  {
    Rig rig(config_for(dir));
    nonces.push_back(rnd_b_of(rig, 103));
  }
  for (std::size_t i = 0; i < nonces.size(); ++i)
    for (std::size_t j = i + 1; j < nonces.size(); ++j)
      EXPECT_NE(nonces[i], nonces[j]) << "RndB reuse between handshake "
                                      << i << " and " << j;
  remove_state(dir);
}

TEST(Durability, StorageKeySealsSecretsOnDisk) {
  const auto dir = temp_dir("sealed");
  remove_state(dir);

  // Masters to scan for: one snapshotted by compaction, one journaled
  // after it.
  const auto master = master_key(0xC1);
  const auto next_master = master_key(0xA7);
  {
    Rig rig(config_for(dir));
    rig.server->rotate_master_key(1, master);
    rig.server->enroll_device(kDevice);
    rig.durable->compact(*rig.server);
    rig.server->rotate_master_key(2, next_master);  // journal after compact
    rig.server->enroll_device(4);
  }
  EXPECT_FALSE(on_disk(dir, master));
  EXPECT_FALSE(on_disk(dir, next_master));
  EXPECT_FALSE(on_disk(dir, storage_key()));

  // Positive control: the scanner does find key bytes in any file of
  // the directory, whatever its name.
  const auto probe = dir + "/probe.tmp";
  std::vector<std::uint8_t> planted = {0x00, 0x01};
  planted.insert(planted.end(), master.begin(), master.end());
  util::write_file(probe, planted);
  EXPECT_TRUE(on_disk(dir, master));
  util::remove_file(probe);

  // The sealed state recovers under its key.
  {
    Rig rig(config_for(dir));
    EXPECT_EQ(rig.server->devices().current_epoch(), 2u);
    EXPECT_TRUE(rig.server->devices().lookup(4).has_value());
    EXPECT_TRUE(rig.server->devices().lookup_epoch(kDevice, 1).has_value());
  }

  // Under another key it is unreadable, with the typed error.
  DurabilityConfig wrong = config_for(dir);
  wrong.storage_key = std::vector<std::uint8_t>(16, 0x11);
  EXPECT_THROW(Rig{wrong}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, StorageKeyMustBe16Bytes) {
  // Sealing is unconditional: a missing or odd-sized key is refused
  // before the state directory is even created.
  const auto dir = temp_dir("keysize");
  remove_state(dir);
  for (const std::size_t size : {0, 15, 17, 32}) {
    DurabilityConfig config = config_for(dir);
    config.storage_key = std::vector<std::uint8_t>(size, 0x6B);
    EXPECT_THROW(DurableState{config}, std::invalid_argument) << size;
    EXPECT_FALSE(std::filesystem::exists(dir)) << size;
  }
}

TEST(Durability, SealKeyDerivesFromTheStorageKey) {
  // Pins the seal key as KDF(storage_key, "medsen-store") and the
  // journal payload layout u8 1 | u64 nonce | ciphertext: a journaled
  // enrollment decrypts, from the outside, to its device id.
  const auto dir = temp_dir("sealkey");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_device(kDevice);
  }
  const auto bodies = journal_bodies(util::read_file(dir + "/journal.wal"));
  ASSERT_EQ(bodies.size(), 1u);
  const auto& body = bodies.front();
  ASSERT_EQ(body.size(), 8u + 1 + 1 + 8 + 8);
  EXPECT_EQ(body[8], 4u);  // kDeviceEnrolled
  EXPECT_EQ(body[9], 1u);  // sealed
  const auto plain = ctr_under_seal_key({body.begin() + 18, body.end()},
                                        le64(body.data() + 10));
  EXPECT_EQ(le64(plain.data()), kDevice);
  remove_state(dir);
}

TEST(Durability, UnsealedPayloadFailsRecovery) {
  // Flag 0 (a plaintext payload) is retired: recovery refuses it
  // instead of reading secrets that were never sealed.
  const auto dir = temp_dir("unsealed");
  remove_state(dir);
  { Rig rig(config_for(dir)); }
  {
    Journal journal(dir + "/journal.wal");
    // u8 0 | u64 device id 9, a well-formed kDeviceEnrolled otherwise.
    const std::vector<std::uint8_t> payload = {0, 9, 0, 0, 0, 0, 0, 0, 0};
    journal.append(JournalRecordType::kDeviceEnrolled, payload);
  }
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, RetiredPerStoreSnapshotFailsRecovery) {
  // The four per-store snapshots of the older layout hold acked state
  // this layout never reads: recovery refuses the directory, naming the
  // file, rather than boot without that state.
  const auto dir = temp_dir("retiredsnap");
  for (const char* retired :
       {"records.snap", "enroll.snap", "registry.snap", "sessions.snap"}) {
    remove_state(dir);
    {
      Rig rig(config_for(dir));
      rig.server->enroll_user("ivan", code_of({1, 3}));
      rig.durable->compact(*rig.server);
    }
    util::write_file(dir + "/" + retired, std::vector<std::uint8_t>{0x4D});
    try {
      Rig rig(config_for(dir));
      ADD_FAILURE() << retired << " was skipped";
    } catch (const PersistenceError& e) {
      EXPECT_NE(std::string(e.what()).find(retired), std::string::npos)
          << e.what();
    }
  }
  remove_state(dir);
}

// Journal record type 3 carried a static per-device key. The type is
// retired and never reused: a journal still holding one must fail
// recovery with the typed error instead of being skipped.
TEST(Durability, RetiredProvisionRecordFailsRecovery) {
  const auto dir = temp_dir("retired");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_device(kDevice);
  }
  {
    Journal journal(dir + "/journal.wal");
    // Sealed payload of u64 device id | blob(key).
    journal.append(static_cast<JournalRecordType>(3),
                   sealed_payload({3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0xAB,
                                   0xCD}));
  }
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, LsnSequenceSurvivesCrashRightAfterCompaction) {
  // A crash between compaction's truncate and the next append leaves an
  // EMPTY journal next to snapshots stamped with LSN N. The restarted
  // journal must continue above N (the snapshots carry the sequence):
  // without the floor, the next acked record would reuse LSN 1 and a
  // later recovery would gate it out behind the snapshot — a silently
  // lost acknowledged write.
  const auto dir = temp_dir("lsnfloor");
  remove_state(dir);
  const auto code = code_of({1, 1});
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("frank", code);
    rig.server->store_result(code, {31, {0x31}});
    rig.durable->compact(*rig.server);  // journal now empty, snaps at LSN 2
  }
  {
    Rig rig(config_for(dir));  // the post-crash restart
    EXPECT_EQ(rig.durable->last_lsn(), 2u);
    rig.server->store_result(code, {32, {0x32}});
    EXPECT_EQ(rig.durable->last_lsn(), 3u);
  }
  Rig rig(config_for(dir));
  const auto records = rig.server->records().fetch(code);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].session_id, 32u);
  remove_state(dir);
}

TEST(Durability, CorruptSnapshotThrowsTyped) {
  const auto dir = temp_dir("corruptsnap");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("dave", code_of({2, 1}));
    rig.durable->compact(*rig.server);
  }
  auto bytes = util::read_file(dir + "/state.snap");
  bytes[bytes.size() / 2] ^= 0xFF;
  util::write_file(dir + "/state.snap", bytes);
  EXPECT_THROW(Rig{config_for(dir)}, PersistenceError);
  remove_state(dir);
}

TEST(Durability, CrashDuringCompactionNeverReusesSealingNonces) {
  // A crash at every crash-point hit inside compact() must recover to
  // exactly the pre-compaction layout (the previous snapshot plus the
  // whole journal suffix replayed) or exactly the post-compaction one
  // (the new snapshot, nothing replayed) — never a mix — with the same
  // logical state either way.
  //
  // The nonce-reuse hole this also pins: compaction crashes after
  // state.snap.tmp is fully written and fsync'd but before the rename.
  // The stranded tmp holds ciphertext under a nonce recovery never
  // reads (it only unseals the committed snapshot + the journal), so a
  // counter rebuilt from observed payloads would re-issue that nonce on
  // the next append — two ciphertexts under one AES-CTR keystream, XOR
  // of ciphertexts = XOR of plaintexts. The fix is the per-boot epoch
  // partition in seal.epoch plus dropping stale tmps at open.
  const auto dir = temp_dir("noncereuse");
  const auto code = code_of({2, 1});
  const auto device_key =
      crypto::diversify_device_key(master_key(0x5A), kDevice, 1);
  constexpr std::uint64_t kSuffix = 4;  // journal records after snapshot 1
  // Builds the pre-compaction state: an earlier snapshot plus kSuffix
  // journaled mutations touching every store.
  const auto build = [&](Rig& rig) {
    rig.server->rotate_master_key(1, master_key(0x5A));
    rig.server->enroll_device(kDevice);
    rig.server->enroll_user("grace", code);
    rig.durable->compact(*rig.server);
    rig.server->store_result(code, {41, {0x41}});
    rig.server->enroll_device(4);
    EXPECT_TRUE(rig.server->revoke_device(4));
    core::SessionCrypto device(kDevice, device_key, 1, 0x1234);
    EXPECT_EQ(rig.server->handle(device.make_challenge(100)).type,
              net::MessageType::kAuthResponse);
  };

  // Discover every crash-point hit compact() makes.
  remove_state(dir);
  std::vector<std::pair<std::string, std::uint64_t>> sites;
  {
    Rig rig(config_for(dir));
    build(rig);
    util::CrashPoints::instance().reset();
    util::CrashPoints::instance().set_tracking(true);
    rig.durable->compact(*rig.server);
    sites = util::CrashPoints::instance().discovered();
    util::CrashPoints::instance().set_tracking(false);
    util::CrashPoints::instance().reset();
  }
  ASSERT_GE(sites.size(), 8u);

  bool saw_pre = false, saw_post = false, saw_stranded = false;
  for (const auto& [site, hits] : sites) {
    for (std::uint64_t nth = 1; nth <= hits; ++nth) {
      const std::string label = site + "#" + std::to_string(nth);
      remove_state(dir);
      std::vector<std::uint8_t> expected;
      {
        Rig rig(config_for(dir));
        build(rig);
        expected = state_of(*rig.server);
        util::ScopedCrashArm armed(site, nth);
        EXPECT_THROW(rig.durable->compact(*rig.server), util::SimulatedCrash)
            << label;
      }
      std::vector<std::uint64_t> nonces;
      const auto tmp = dir + "/state.snap.tmp";
      if (util::file_exists(tmp)) {
        if (const auto stranded = snapshot_nonce(util::read_file(tmp))) {
          nonces.push_back(*stranded);
          saw_stranded = true;
        }
      }

      {
        Rig rig(config_for(dir));
        EXPECT_EQ(state_of(*rig.server), expected) << label;
        EXPECT_TRUE(rig.recovery.snapshots_loaded) << label;
        const auto replayed = rig.recovery.records_replayed;
        EXPECT_TRUE(replayed == kSuffix || replayed == 0)
            << label << ": " << replayed << " records replayed";
        saw_pre |= replayed == kSuffix;
        saw_post |= replayed == 0;
        // Stale tmps are dropped at open, so the stranded ciphertext
        // cannot outlive the nonce accounting either.
        EXPECT_EQ(state_files(dir), kCompactedFiles) << label;
        rig.server->store_result(code, {42, {0x42}});
      }

      // Every sealed payload on disk — the live snapshot and the journal
      // records of both boots — carries a nonce distinct from the
      // stranded one and from each other.
      const auto live =
          snapshot_nonce(util::read_file(dir + "/state.snap"));
      ASSERT_TRUE(live.has_value()) << label;
      nonces.push_back(*live);
      const auto journal =
          journal_nonces(util::read_file(dir + "/journal.wal"));
      nonces.insert(nonces.end(), journal.begin(), journal.end());
      const std::set<std::uint64_t> unique(nonces.begin(), nonces.end());
      EXPECT_EQ(unique.size(), nonces.size())
          << label << ": sealing nonce re-issued";
    }
  }
  EXPECT_TRUE(saw_pre);
  EXPECT_TRUE(saw_post);
  EXPECT_TRUE(saw_stranded);
  remove_state(dir);
}

TEST(Durability, RacingEnrollmentsNeverPoisonTheJournal) {
  // Validation must run inside the durability gate: if two racing
  // enrollments of one code both pass a check done outside it, both
  // journal kUserEnrolled and the loser's apply() throws only after its
  // record is durable — every later replay then throws and the server
  // can never boot again.
  const auto dir = temp_dir("enrollrace");
  remove_state(dir);
  constexpr int kRounds = 12;
  {
    Rig rig(config_for(dir));
    for (int round = 0; round < kRounds; ++round) {
      const auto code =
          code_of({static_cast<std::uint8_t>(1 + round % 4),
                   static_cast<std::uint8_t>(1 + round / 4)});
      std::atomic<int> rejected{0};
      std::vector<std::thread> threads;
      threads.reserve(4);
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&rig, &rejected, &code, round, t] {
          try {
            rig.server->enroll_user("user" + std::to_string(round) + "_" +
                                        std::to_string(t),
                                    code);
          } catch (const std::invalid_argument&) {
            ++rejected;
          }
        });
      }
      for (auto& thread : threads) thread.join();
      EXPECT_EQ(rejected.load(), 3) << "round " << round;
    }
  }
  // The replay is the proof: exactly one record per code reached the
  // WAL, so recovery applies cleanly instead of throwing.
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.user_enrollments,
            static_cast<std::uint64_t>(kRounds));
  remove_state(dir);
}

TEST(Durability, SnapshotServerMismatchSurfacesTyped) {
  // A snapshot written under one alphabet recovered into a server with
  // another makes enroll() throw std::invalid_argument mid-restore;
  // the persistence contract says every recovery failure is the typed
  // PersistenceError.
  const auto dir = temp_dir("snapmismatch");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("heidi", code_of({4, 4}));
    rig.durable->compact(*rig.server);
  }
  DurableState durable(config_for(dir));
  auth::CytoAlphabet small;
  small.concentration_levels_per_ul = {0.0, 150.0};  // level 4 invalid
  CloudServer server(AnalysisConfig{}, small,
                     auth::ParticleClassifier::train({}));
  EXPECT_THROW(server.attach_durability(durable), PersistenceError);
  remove_state(dir);
}

TEST(Durability, InvalidEnrollmentIsNeverJournaled) {
  const auto dir = temp_dir("invalidenroll");
  remove_state(dir);
  {
    Rig rig(config_for(dir));
    rig.server->enroll_user("erin", code_of({2, 1}));
    // Same code for another user: rejected before it reaches the WAL.
    EXPECT_THROW(rig.server->enroll_user("mallory", code_of({2, 1})),
                 std::invalid_argument);
    EXPECT_EQ(rig.durable->last_lsn(), 1u);
  }
  // Replay is clean — the invalid enrollment left no journal record.
  Rig rig(config_for(dir));
  EXPECT_EQ(rig.recovery.user_enrollments, 1u);
  EXPECT_EQ(rig.server->enrollments().lookup(code_of({2, 1})), "erin");
  remove_state(dir);
}

}  // namespace
}  // namespace medsen::cloud
