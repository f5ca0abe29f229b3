#include "cloud/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>

#include "util/fileio.h"

namespace medsen::cloud {
namespace {

// The snapshot codecs DurableState stores: body encoders/decoders inside
// the seal_blob container (magic | version | CRC-32 | body).
constexpr std::uint32_t kMagic = 0x4D445445;  // "MDTE", test-only
constexpr std::uint32_t kOtherMagic = 0x4D44544F;

auth::CytoCode code_of(std::initializer_list<std::uint8_t> levels) {
  auth::CytoCode code;
  code.levels = levels;
  return code;
}

auth::EnrollmentDatabase enrollments_round_trip(
    const auth::EnrollmentDatabase& db) {
  return decode_enrollments_body(
      unseal_blob(kMagic, seal_blob(kMagic, encode_enrollments_body(db))));
}

RecordStore records_round_trip(const RecordStore& store) {
  return RecordStore(decode_records_body(
      unseal_blob(kMagic, seal_blob(kMagic, encode_records_body(store)))));
}

TEST(PersistenceTest, EnrollmentsRoundTrip) {
  auth::EnrollmentDatabase db{auth::CytoAlphabet{}};
  db.enroll("alice", code_of({1, 2}));
  db.enroll("bob", code_of({3, 0}));

  const auto loaded = enrollments_round_trip(db);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.lookup(code_of({1, 2})), "alice");
  EXPECT_EQ(loaded.lookup(code_of({3, 0})), "bob");
  EXPECT_EQ(loaded.alphabet().levels(), db.alphabet().levels());
}

TEST(PersistenceTest, CustomAlphabetSurvives) {
  auth::CytoAlphabet alphabet;
  alphabet.concentration_levels_per_ul = {0.0, 200.0, 600.0};
  auth::EnrollmentDatabase db{alphabet};
  db.enroll("carol", code_of({2, 1}));
  const auto loaded = enrollments_round_trip(db);
  EXPECT_EQ(loaded.alphabet().levels(), 3u);
  EXPECT_DOUBLE_EQ(loaded.alphabet().concentration_levels_per_ul[2], 600.0);
}

TEST(PersistenceTest, RecordsRoundTrip) {
  RecordStore store;
  store.store(code_of({1, 1}), {10, {1, 2, 3}});
  store.store(code_of({1, 1}), {11, {4}});
  store.store(code_of({0, 2}), {12, {}});

  const auto loaded = records_round_trip(store);
  EXPECT_EQ(loaded.record_count(), 3u);
  EXPECT_EQ(loaded.fetch(code_of({1, 1})).size(), 2u);
  EXPECT_EQ(loaded.latest(code_of({1, 1}))->session_id, 11u);
  EXPECT_EQ(loaded.fetch(code_of({1, 1}))[0].encrypted_result,
            (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(PersistenceTest, EmptyStoresRoundTrip) {
  EXPECT_EQ(
      enrollments_round_trip(auth::EnrollmentDatabase{auth::CytoAlphabet{}})
          .size(),
      0u);
  EXPECT_EQ(records_round_trip(RecordStore{}).record_count(), 0u);
}

TEST(PersistenceTest, CorruptedFileRejected) {
  auth::EnrollmentDatabase db{auth::CytoAlphabet{}};
  db.enroll("alice", code_of({1, 2}));
  auto bytes = seal_blob(kMagic, encode_enrollments_body(db));
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW((void)unseal_blob(kMagic, bytes), PersistenceError);
}

TEST(PersistenceTest, WrongMagicRejected) {
  RecordStore store;
  store.store(code_of({1, 1}), {1, {9}});
  const auto bytes = seal_blob(kMagic, encode_records_body(store));
  // A container sealed for one store must not open as another.
  EXPECT_THROW((void)unseal_blob(kOtherMagic, bytes), PersistenceError);
}

TEST(PersistenceTest, TruncationRejected) {
  auth::EnrollmentDatabase db{auth::CytoAlphabet{}};
  db.enroll("alice", code_of({1, 2}));
  const auto body = encode_enrollments_body(db);
  const auto sealed = seal_blob(kMagic, body);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7},
                                sealed.size() / 2, sealed.size() - 1}) {
    const std::vector<std::uint8_t> torn(
        sealed.begin(), sealed.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)unseal_blob(kMagic, torn), PersistenceError) << cut;
  }
  const std::span<const std::uint8_t> short_body(body.data(),
                                                 body.size() - 1);
  EXPECT_THROW((void)decode_enrollments_body(short_body), PersistenceError);
}

TEST(PersistenceTest, TrailingBytesRejected) {
  RecordStore store;
  store.store(code_of({1, 1}), {1, {9}});
  auto body = encode_records_body(store);
  auto sealed = seal_blob(kMagic, body);
  sealed.push_back(0);
  EXPECT_THROW((void)unseal_blob(kMagic, sealed), PersistenceError);
  body.push_back(0);
  EXPECT_THROW((void)decode_records_body(body), PersistenceError);
}

TEST(PersistenceTest, HostileCountsRejected) {
  // A count of 2^32-1 entries in a few bytes must be refused up front,
  // never trusted as an allocation size.
  const std::vector<std::uint8_t> hostile = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW((void)decode_records_body(hostile), PersistenceError);
  std::vector<std::uint8_t> registry(4, 0);  // reserved
  registry.insert(registry.end(), hostile.begin(), hostile.end());
  EXPECT_THROW((void)decode_registry_body(registry), PersistenceError);
}

TEST(FileIo, RoundTripAndExists) {
  const std::string path =
      std::string(::testing::TempDir()) + "/medsen_fileio.bin";
  const std::vector<std::uint8_t> data = {0, 1, 255, 42};
  util::write_file(path, data);
  EXPECT_TRUE(util::file_exists(path));
  EXPECT_EQ(util::read_file(path), data);
  std::remove(path.c_str());
  EXPECT_FALSE(util::file_exists(path));
}

}  // namespace
}  // namespace medsen::cloud
