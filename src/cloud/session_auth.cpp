#include "cloud/session_auth.h"

#include <algorithm>
#include <utility>

namespace medsen::cloud {

void SessionAuthTable::establish(std::uint64_t device_id,
                                 std::uint64_t session_id,
                                 std::vector<std::uint8_t> mac_key) {
  shards_.with(device_id, [&](Shard& shard) {
    DeviceSessionState& state = shard.sessions[device_id];
    const std::uint64_t seq = state.handshake_seq;
    state = DeviceSessionState{};  // re-key: the old key wipes here
    state.session_id = session_id;
    state.mac_key = util::SecretBytes(std::move(mac_key));  // wipes source
    state.handshake_seq = seq;
  });
}

std::optional<util::SecretBytes> SessionAuthTable::session_key(
    std::uint64_t device_id, std::uint64_t session_id) const {
  return shards_.with(
      device_id,
      [&](const Shard& shard) -> std::optional<util::SecretBytes> {
        const auto it = shard.sessions.find(device_id);
        if (it == shard.sessions.end() ||
            it->second.session_id != session_id || it->second.mac_key.empty())
          return std::nullopt;
        return it->second.mac_key;
      });
}

CounterStatus SessionAuthTable::classify(std::uint64_t device_id,
                                         std::uint64_t session_id,
                                         std::uint32_t counter) const {
  return shards_.with(device_id, [&](const Shard& shard) {
    const auto it = shard.sessions.find(device_id);
    if (it == shard.sessions.end() || it->second.session_id != session_id ||
        it->second.mac_key.empty())
      return CounterStatus::kNoSession;
    const DeviceSessionState& s = it->second;
    if (counter == 0) return CounterStatus::kStale;  // 0 is the handshake's
    if (counter > s.highest) return CounterStatus::kFresh;
    const std::uint32_t age = s.highest - counter;
    if (age >= kWindowSize) return CounterStatus::kStale;
    // Bit 0 is `highest` itself, which commit() always sets.
    return ((s.window >> age) & 1u) != 0 ? CounterStatus::kReplay
                                         : CounterStatus::kFresh;
  });
}

void SessionAuthTable::commit(std::uint64_t device_id,
                              std::uint64_t session_id,
                              std::uint32_t counter) {
  shards_.with(device_id, [&](Shard& shard) {
    const auto it = shard.sessions.find(device_id);
    if (it == shard.sessions.end() || it->second.session_id != session_id)
      return;
    DeviceSessionState& s = it->second;
    if (counter > s.highest) {
      const std::uint32_t advance = counter - s.highest;
      s.window = advance >= kWindowSize ? 0 : s.window << advance;
      s.window |= 1u;  // the new highest is seen
      s.highest = counter;
    } else {
      const std::uint32_t age = s.highest - counter;
      if (age < kWindowSize) s.window |= std::uint64_t{1} << age;
    }
  });
}

void SessionAuthTable::drop(std::uint64_t device_id) {
  shards_.with(device_id, [&](Shard& shard) {
    const auto it = shard.sessions.find(device_id);
    if (it == shard.sessions.end()) return;
    // Keep the handshake ordinal across drops: nonce derivation must
    // never rewind even through revoke/rotate churn.
    const std::uint64_t seq = it->second.handshake_seq;
    it->second = DeviceSessionState{};
    it->second.handshake_seq = seq;
  });
}

void SessionAuthTable::drop_all() {
  shards_.for_each_shard([](Shard& shard) {
    for (auto& [id, state] : shard.sessions) {
      const std::uint64_t seq = state.handshake_seq;
      state = DeviceSessionState{};
      state.handshake_seq = seq;
    }
  });
}

std::uint64_t SessionAuthTable::next_handshake_seq(std::uint64_t device_id) {
  return shards_.with(device_id, [&](Shard& shard) {
    return ++shard.sessions[device_id].handshake_seq;
  });
}

void SessionAuthTable::restore_handshake_seq(std::uint64_t device_id,
                                             std::uint64_t seq) {
  shards_.with(device_id, [&](Shard& shard) {
    DeviceSessionState& state = shard.sessions[device_id];
    if (seq > state.handshake_seq) state.handshake_seq = seq;
  });
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
SessionAuthTable::handshake_seqs() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seqs;
  shards_.for_each_shard([&](const Shard& shard) {
    for (const auto& [id, state] : shard.sessions)
      if (state.handshake_seq != 0) seqs.emplace_back(id, state.handshake_seq);
  });
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

std::size_t SessionAuthTable::active_sessions() const {
  std::size_t total = 0;
  shards_.for_each_shard([&](const Shard& shard) {
    for (const auto& [id, state] : shard.sessions)
      if (!state.mac_key.empty()) ++total;
  });
  return total;
}

}  // namespace medsen::cloud
