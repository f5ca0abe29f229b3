#include "cloud/durability.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "cloud/persistence.h"
#include "cloud/server.h"
#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "util/crash_point.h"
#include "util/fileio.h"
#include "util/serialize.h"

namespace medsen::cloud {

namespace {

constexpr std::uint32_t kSealEpochMagic = 0x4D444550;  // "MDEP"

/// Checks what must hold before anything on disk is touched, then
/// returns the journal path. The per-store snapshots of the older
/// four-file layout hold acked state this layout does not read, so a
/// directory still holding one is refused instead of booted without it.
std::string open_state_dir(const DurabilityConfig& config) {
  if (config.storage_key.size() != crypto::Aes128::kKeySize)
    throw std::invalid_argument(
        "DurabilityConfig::storage_key must be 16 bytes");
  util::ensure_directory(config.dir);
  for (const char* retired :
       {"records.snap", "enroll.snap", "registry.snap", "sessions.snap"}) {
    const auto path = config.dir + "/" + retired;
    if (util::file_exists(path))
      throw PersistenceError("durability: retired per-store snapshot " +
                             path + " (this layout keeps state.snap only)");
  }
  return config.dir + "/journal.wal";
}

template <typename Fn>
auto replay_guard(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const PersistenceError&) {
    throw;
  } catch (const util::SimulatedCrash&) {
    throw;
  } catch (const std::exception& e) {
    throw PersistenceError(std::string(what) + ": " + e.what());
  }
}

}  // namespace

DurableState::DurableState(DurabilityConfig config)
    : config_(std::move(config)),
      journal_(open_state_dir(config_), Journal::Config{config_.fsync}) {
  // A crash between write_file_atomic's tmp fsync and its rename
  // strands a fully sealed state.snap.tmp whose nonce recovery never
  // reads; drop it before anything else so the stranded ciphertext
  // cannot outlive the nonce accounting.
  if (util::remove_file(snapshot_path() + ".tmp"))
    util::sync_parent_dir(snapshot_path());
  seal_key_.adopt(crypto::kdf_cmac(config_.storage_key, "medsen-store", {},
                                   crypto::Aes128::kKeySize));
  bump_seal_epoch();
}

void DurableState::bump_seal_epoch() {
  // Epoch-partitioned nonces: the durably persisted boot counter forms
  // the high 32 bits of every nonce this process seals with, so this
  // lifetime's nonce space is disjoint from every other's — including
  // nonces that reached disk but are invisible to recovery (stranded
  // snapshot tmps, torn journal tails). The bump is written *before*
  // the first seal, so a crash mid-bump costs an epoch number, never a
  // reuse.
  std::uint64_t prior = 0;
  const auto path = seal_epoch_path();
  if (util::file_exists(path)) {
    const auto body = unseal_blob(kSealEpochMagic, util::read_file(path));
    prior = replay_guard("seal epoch", [&] {
      util::ByteReader in(body);
      const std::uint64_t epoch = in.u64();
      in.expect_done("seal epoch");
      return epoch;
    });
  }
  if (prior >= 0xFFFFFFFFull)
    throw PersistenceError("durability: seal epoch space exhausted");
  seal_epoch_ = prior + 1;
  util::ByteWriter body;
  body.u64(seal_epoch_);
  util::write_file_atomic(path, seal_blob(kSealEpochMagic, body.take()));
  nonce_.store((seal_epoch_ << 32) | 1, std::memory_order_relaxed);
}

std::string DurableState::journal_path() const {
  return config_.dir + "/journal.wal";
}
std::string DurableState::snapshot_path() const {
  return config_.dir + "/state.snap";
}
std::string DurableState::seal_epoch_path() const {
  return config_.dir + "/seal.epoch";
}

std::vector<std::uint8_t> DurableState::seal_payload(
    std::vector<std::uint8_t> payload) {
  const std::uint64_t nonce =
      nonce_.fetch_add(1, std::memory_order_relaxed);
  // A nonce outside this boot's epoch partition could collide with one
  // issued by another lifetime; refuse to seal rather than risk CTR
  // keystream reuse. Unreachable short of 2^32 seals in one process or
  // a rewound seal.epoch file.
  if ((nonce >> 32) != seal_epoch_)
    throw PersistenceError("durability: sealing nonce outside this boot's "
                           "epoch space");
  crypto::Aes128Ctr ctr(
      std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
          seal_key_.data(), crypto::Aes128::kKeySize),
      nonce);
  ctr.apply(payload);
  util::ByteWriter out;
  out.u8(1);
  out.u64(nonce);
  out.bytes(payload);
  return out.take();
}

std::span<const std::uint8_t> DurableState::unseal_payload(
    std::span<std::uint8_t> sealed) {
  const std::uint64_t nonce = replay_guard("unseal_payload", [&] {
    util::ByteReader in(sealed);
    const std::uint8_t flag = in.u8();
    if (flag == 0)
      throw PersistenceError(
          "durability: unsealed (flag 0) payloads are retired");
    if (flag != 1) throw PersistenceError("durability: unknown sealing flag");
    return in.u64();
  });
  // Defense in depth: keep the counter ahead of every nonce actually
  // observed. The real reuse guarantee is the epoch partition (state
  // written after a rewound seal.epoch file can carry nonces at or above
  // this boot's base — raising past them makes seal_payload fail closed
  // rather than reuse).
  std::uint64_t expected = nonce_.load(std::memory_order_relaxed);
  while (nonce + 1 > expected &&
         !nonce_.compare_exchange_weak(expected, nonce + 1,
                                       std::memory_order_relaxed)) {
  }
  const auto plain = sealed.subspan(9);
  crypto::Aes128Ctr ctr(
      std::span<const std::uint8_t, crypto::Aes128::kKeySize>(
          seal_key_.data(), crypto::Aes128::kKeySize),
      nonce);
  ctr.apply(plain);
  return plain;
}

RecoveryStats DurableState::recover_into(CloudServer& server) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryStats stats;
  stats.tail_truncated = journal_.open_stats().tail_truncated;

  // The snapshot first. It is one file replaced by one rename, so it is
  // wholly the previous compaction's or wholly the latest's. It is
  // decrypted in the file's own buffer, which the store decoders read.
  // Restores run under replay_guard like journal replay below: a
  // snapshot/server mismatch (wrong alphabet, duplicate user) must
  // surface as the typed PersistenceError the persistence contract
  // documents, not a raw invalid_argument out of recovery.
  std::uint64_t applied_lsn = 0;
  if (util::file_exists(snapshot_path())) {
    auto body =
        unseal_blob(kStateSnapshotMagic, util::read_file(snapshot_path()));
    const auto [lsn, sealed] = split_state_snapshot(body);
    applied_lsn = lsn;
    const StateBodies stores = split_state_body(unseal_payload(sealed));
    replay_guard("snapshot restore", [&] {
      for (auto& [key, records] : decode_records_body(stores.records))
        server.records().restore(key, std::move(records));
      const auto db = decode_enrollments_body(stores.enrollments);
      for (const auto& record : db.records())
        server.enrollments().enroll(record.user_id, record.code);
      server.devices().restore(decode_registry_body(stores.registry));
      for (const auto& [device, seq] : decode_sessions_body(stores.sessions))
        server.sessions().restore_handshake_seq(device, seq);
    });
    stats.snapshots_loaded = true;
  }

  // The snapshot is the only carrier of the LSN sequence across a crash
  // that lands between compaction's truncate and the next append: push
  // its LSN back into the journal before anything new is appended, or
  // fresh records would reuse LSNs the snapshot already covers.
  journal_.raise_lsn_floor(applied_lsn);

  // Journal replay of everything the snapshot does not cover. Records at
  // or below applied_lsn are still on disk only when a crash landed
  // between the snapshot's rename and the journal's truncation.
  for (auto& record : journal_.take_recovered()) {
    if (record.lsn <= applied_lsn) continue;
    const auto payload = unseal_payload(record.payload);
    replay_guard("journal replay", [&] {
      util::ByteReader in(payload);
      switch (record.type) {
        case JournalRecordType::kRecordStored: {
          const std::string key = in.str();
          StoredRecord stored;
          stored.session_id = in.u64();
          stored.encrypted_result = in.blob();
          in.expect_done("replay kRecordStored");
          server.records().append(key, std::move(stored));
          ++stats.stored_records;
          break;
        }
        case JournalRecordType::kUserEnrolled: {
          const std::string user = in.str();
          const auto code = auth::deserialize_code(in.blob());
          in.expect_done("replay kUserEnrolled");
          server.enrollments().enroll(user, code);
          ++stats.user_enrollments;
          break;
        }
        case JournalRecordType::kDeviceEnrolled: {
          const std::uint64_t id = in.u64();
          in.expect_done("replay kDeviceEnrolled");
          server.devices().enroll(id);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kDeviceRevoked: {
          const std::uint64_t id = in.u64();
          in.expect_done("replay kDeviceRevoked");
          server.devices().revoke(id);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kMasterRotated: {
          const std::uint32_t epoch = in.u32();
          auto master = in.blob();
          in.expect_done("replay kMasterRotated");
          server.devices().set_master_key(epoch, std::move(master));
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kEpochRetired: {
          const std::uint32_t epoch = in.u32();
          in.expect_done("replay kEpochRetired");
          server.devices().retire_epoch(epoch);
          ++stats.registry_events;
          break;
        }
        case JournalRecordType::kHandshake: {
          const std::uint64_t device = in.u64();
          const std::uint64_t seq = in.u64();
          in.expect_done("replay kHandshake");
          server.sessions().restore_handshake_seq(device, seq);
          ++stats.handshake_marks;
          break;
        }
        default:
          throw PersistenceError(
              "journal: unknown record type " +
              std::to_string(static_cast<unsigned>(record.type)));
      }
      ++stats.records_replayed;
    });
  }

  stats.last_lsn = journal_.last_lsn();
  stats.replay_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  recovery_ = stats;
  util::crash_point("durability.recover.done");
  return stats;
}

void DurableState::append_and_apply(JournalRecordType type,
                                    std::vector<std::uint8_t> payload,
                                    const std::function<void()>& apply) {
  append_and_apply(type, std::move(payload), {}, apply);
}

void DurableState::append_and_apply(JournalRecordType type,
                                    std::vector<std::uint8_t> payload,
                                    const std::function<void()>& validate,
                                    const std::function<void()>& apply) {
  // Seal outside the gate (AES work off the lock), then validate,
  // journal and apply under it so compaction always sees memory ==
  // replay(journal). Validation must be inside the gate: outside it,
  // two racing mutations can both pass, both journal, and the loser's
  // apply() throws *after* its record is durable — every later replay
  // of that record then fails and the server can never boot.
  auto sealed = seal_payload(std::move(payload));
  gate_.with(0, [&](Gate&) {
    if (validate) validate();
    journal_.append(type, sealed);
    apply();
  });
}

void DurableState::log_record(const std::string& key,
                              const StoredRecord& record,
                              const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.str(key);
  payload.u64(record.session_id);
  payload.blob(record.encrypted_result);
  append_and_apply(JournalRecordType::kRecordStored, payload.take(), apply);
}

void DurableState::log_user_enrolled(const std::string& user_id,
                                     const auth::CytoCode& code,
                                     const std::function<void()>& validate,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.str(user_id);
  payload.blob(auth::serialize_code(code));
  append_and_apply(JournalRecordType::kUserEnrolled, payload.take(), validate,
                   apply);
}

void DurableState::log_enroll_device(std::uint64_t device_id,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u64(device_id);
  append_and_apply(JournalRecordType::kDeviceEnrolled, payload.take(), apply);
}

void DurableState::log_revoke(std::uint64_t device_id,
                              const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u64(device_id);
  append_and_apply(JournalRecordType::kDeviceRevoked, payload.take(), apply);
}

void DurableState::log_master_rotated(std::uint32_t epoch,
                                      std::span<const std::uint8_t> master,
                                      const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u32(epoch);
  payload.blob(master);
  append_and_apply(JournalRecordType::kMasterRotated, payload.take(), apply);
}

void DurableState::log_epoch_retired(std::uint32_t epoch,
                                     const std::function<void()>& apply) {
  util::ByteWriter payload;
  payload.u32(epoch);
  append_and_apply(JournalRecordType::kEpochRetired, payload.take(), apply);
}

void DurableState::log_handshake(std::uint64_t device_id, std::uint64_t seq) {
  util::ByteWriter payload;
  payload.u64(device_id);
  payload.u64(seq);
  append_and_apply(JournalRecordType::kHandshake, payload.take(), [] {});
}

void DurableState::compact(CloudServer& server) {
  gate_.with(0, [&](Gate&) {
    if (journal_.appended_since_compaction() == 0) return;
    util::crash_point("durability.compact.begin");
    // One file, one rename: a crash leaves the previous snapshot or this
    // one, never stores from two generations.
    util::write_file_atomic(
        snapshot_path(),
        encode_state_snapshot(
            journal_.last_lsn(),
            seal_payload(encode_state_body(server.records(),
                                           server.enrollments(),
                                           server.devices(),
                                           server.sessions()))));
    util::crash_point("durability.compact.snapshot_written");
    journal_.truncate_all();
    util::crash_point("durability.compact.done");
  });
}

void DurableState::maybe_compact(CloudServer& server) {
  if (config_.compact_after_records == 0) return;
  if (journal_.appended_since_compaction() < config_.compact_after_records)
    return;
  compact(server);
}

}  // namespace medsen::cloud
