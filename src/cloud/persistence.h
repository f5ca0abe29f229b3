#pragma once
// Persistence codecs for the cloud's state: the enrollment database
// (user -> cyto-code), the record store (cyto-code -> encrypted results),
// the device registry's keying state and the handshake ordinals.
// cloud::DurableState stores all four in one sealed compaction snapshot,
// state.snap, inside a seal_blob container whose magic, version and
// CRC-32 reject partial writes and corruption. Every decode failure
// surfaces as the typed PersistenceError, never as UB or a silent
// partial load.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "auth/enrollment.h"
#include "cloud/dispatch.h"
#include "cloud/persistence_error.h"
#include "cloud/session_auth.h"
#include "cloud/storage.h"

namespace medsen::cloud {

/// Container framing: u32 magic | u32 version | u32 crc32(body) |
/// blob(body). unseal_blob verifies all three and throws
/// PersistenceError on any mismatch (including trailing bytes). It
/// returns the body in the file's own buffer (the header is shifted out
/// in place), so a whole-state file is never held twice.
std::vector<std::uint8_t> seal_blob(std::uint32_t magic,
                                    std::vector<std::uint8_t> body);
std::vector<std::uint8_t> unseal_blob(std::uint32_t magic,
                                      std::vector<std::uint8_t> file);

/// Body codecs. Decoders are strict: truncated input, impossible counts
/// and trailing bytes all throw PersistenceError.
std::vector<std::uint8_t> encode_enrollments_body(
    const auth::EnrollmentDatabase& db);
auth::EnrollmentDatabase decode_enrollments_body(
    std::span<const std::uint8_t> body);
std::vector<std::uint8_t> encode_records_body(const RecordStore& store);
std::map<std::string, std::vector<StoredRecord>> decode_records_body(
    std::span<const std::uint8_t> body);
/// Registry body: u32 reserved (must be 0; it counted the per-device
/// keys of the retired static-key plane) | masters | current epoch |
/// enrolled ids | revoked ids. A non-zero reserved field is rejected.
std::vector<std::uint8_t> encode_registry_body(const DeviceRegistry& registry);
RegistrySnapshot decode_registry_body(std::span<const std::uint8_t> body);
/// Handshake-ordinal body: u32 count | (u64 device, u64 seq)*. Without
/// it, compaction would truncate the kHandshake journal records and a
/// restart could rewind a device's RndB ordinal.
std::vector<std::uint8_t> encode_sessions_body(const SessionAuthTable& table);
std::vector<std::pair<std::uint64_t, std::uint64_t>> decode_sessions_body(
    std::span<const std::uint8_t> body);

/// The compaction snapshot, state.snap: seal_blob(kStateSnapshotMagic,
/// u64 applied_lsn | blob(sealed)). `sealed` is DurableState's sealed
/// payload (u8 1 | u64 nonce | AES-128-CTR ciphertext) over the state
/// body, the four store bodies back to back:
///   blob(records) | blob(enrollments) | blob(registry) | blob(sessions)
inline constexpr std::uint32_t kStateSnapshotMagic = 0x4D445354;  // "MDST"

std::vector<std::uint8_t> encode_state_snapshot(
    std::uint64_t applied_lsn, std::span<const std::uint8_t> sealed);
/// Splits an unseal_blob'd state.snap body into its applied LSN and the
/// sealed payload, left as a view into `body` so it unseals in place.
std::pair<std::uint64_t, std::span<std::uint8_t>> split_state_snapshot(
    std::span<std::uint8_t> body);

std::vector<std::uint8_t> encode_state_body(
    const RecordStore& records, const auth::EnrollmentDatabase& enrollments,
    const DeviceRegistry& registry, const SessionAuthTable& sessions);
/// Views into a decoded state body, one per store codec above.
struct StateBodies {
  std::span<const std::uint8_t> records;
  std::span<const std::uint8_t> enrollments;
  std::span<const std::uint8_t> registry;
  std::span<const std::uint8_t> sessions;
};
StateBodies split_state_body(std::span<const std::uint8_t> body);

}  // namespace medsen::cloud
