#pragma once
// The idempotent session cache, sharded by device and bounded by an LRU
// eviction policy. The reliable transport re-uploads whenever a response
// is lost, so the server must answer a byte-identical replay of
// (device_id, session_id, counter) with the original response without
// re-running the analysis — but a million-device soak must not let the
// cache grow without limit. Eviction drops the *least recently touched*
// exchange; a replay of an evicted command is refused by the server's
// anti-replay window, never served from stale cache state.
//
// Sharding routes on device_id, so a request's cache traffic stays on
// the same shard as its registry lookup and no cross-shard lock is ever
// taken while handling a request.

#include <cstdint>
#include <list>
#include <tuple>
#include <unordered_map>

#include "net/messages.h"
#include "util/sharded.h"

namespace medsen::cloud {

struct SessionCacheConfig {
  /// Shard count (0 = util::default_shard_count(); rounded to a power
  /// of two). Use 1 to reproduce the old single-lock behavior.
  std::size_t shards = 0;
  /// Total cached exchanges across all shards (approximate: the bound
  /// is enforced per shard as capacity / shard_count, at least 1).
  /// 0 = unbounded (the pre-eviction behavior; soak tests only).
  std::size_t capacity = 1u << 16;
};

class SessionCache {
 public:
  using Config = SessionCacheConfig;

  enum class Lookup : std::uint8_t {
    kMiss,     ///< never seen (or evicted): process the request
    kReplay,   ///< byte-identical replay: serve the cached response
    kConflict  ///< same session, different bytes: protocol violation
  };

  struct Hit {
    Lookup state = Lookup::kMiss;
    net::Envelope response;
  };

  explicit SessionCache(Config config = {});

  /// Classify `request` against the cache. A replay hit also refreshes
  /// the entry's LRU position (hot sessions stay cached).
  [[nodiscard]] Hit lookup(const net::Envelope& request);

  /// Cache a successful exchange, evicting the shard's least recently
  /// used entries past its capacity. An entry that already exists (two
  /// threads racing the same first request) is left untouched.
  void insert(const net::Envelope& request, const net::Envelope& response);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t evictions() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.shard_count(); }
  [[nodiscard]] std::size_t per_shard_capacity() const {
    return per_shard_capacity_;
  }

 private:
  // Keyed (device, session, counter): the session-crypto plane keeps one
  // session_id across the whole retry ladder and disambiguates attempts
  // by command counter, so each counter value is its own idempotency
  // slot; the handshake is the session's counter-0 slot.
  using SessionKey = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;

  struct KeyHash {
    std::size_t operator()(const SessionKey& key) const {
      return static_cast<std::size_t>(util::fnv1a64(
          util::fnv1a64(std::get<0>(key) ^ std::get<2>(key)) ^
          std::get<1>(key)));
    }
  };

  struct Entry {
    SessionKey key;
    crypto::Sha256Digest request_mac{};
    net::Envelope response;
  };

  struct ShardState {
    std::list<Entry> lru;  ///< front = most recently touched
    std::unordered_map<SessionKey, std::list<Entry>::iterator, KeyHash> index;
    std::uint64_t evictions = 0;
  };

  std::size_t per_shard_capacity_;
  util::Sharded<ShardState> shards_;
};

}  // namespace medsen::cloud
