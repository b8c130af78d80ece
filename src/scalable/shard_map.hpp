// Shard map: the explicit, stable partitioning of the event space
// across aggregator shards (ROADMAP item 1, following GIGA+'s
// hash-partitioning idea of a deterministic map every party can evaluate
// locally instead of a coordination service).
//
// Every component that needs to know which shard owns an event — the
// router in front of the shard inboxes, the merged-replay path, the
// consumer's vector cursor, the monitor's per-shard restart
// orchestration — consults the same ShardMap, so a (source, shard)
// assignment can never diverge between the write and read paths.
//
// Partitioning is by event *source* (e.g. "lustre:MDT3"): a source's
// records carry per-source changelog cookies whose dedup/gap protocol
// requires that one shard sees the source's whole contiguous stream.
// Sources with a trailing decimal index map round-robin by that index
// (perfect balance for the common MDT0..MDTn-1 layout); anything else
// falls back to FNV-1a. Tests can pin sources explicitly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"

namespace fsmon::scalable {

class ShardMap {
 public:
  explicit ShardMap(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

  std::size_t shards() const { return shards_; }

  /// Stable shard assignment for a source. Never fails: an empty or
  /// unparsable source still maps deterministically (hash of the bytes).
  std::size_t shard_of(std::string_view source) const {
    if (shards_ == 1) return 0;
    if (auto it = pinned_.find(source); it != pinned_.end()) return it->second;
    if (auto index = trailing_index(source)) return *index % shards_;
    return static_cast<std::size_t>(fnv1a(source) % shards_);
  }

  /// Pin a source to a shard explicitly (tests, manual rebalancing).
  /// Must be applied identically on every party before traffic flows.
  void pin(std::string source, std::size_t shard) {
    pinned_[std::move(source)] = shard % shards_;
  }

  /// Human-readable map entry, the format documented in
  /// docs/ARCHITECTURE.md: "<source> -> shard<k> (<rule>)".
  std::string describe(std::string_view source) const {
    std::string rule = "fnv1a";
    if (pinned_.find(source) != pinned_.end())
      rule = "pinned";
    else if (trailing_index(source))
      rule = "index";
    return std::string(source) + " -> shard" + std::to_string(shard_of(source)) +
           " (" + rule + ")";
  }

 private:
  /// "lustre:MDT12" -> 12; no trailing digits -> nullopt.
  static std::optional<std::uint64_t> trailing_index(std::string_view source) {
    std::size_t end = source.size();
    std::size_t begin = end;
    while (begin > 0 && source[begin - 1] >= '0' && source[begin - 1] <= '9') --begin;
    if (begin == end) return std::nullopt;
    std::uint64_t value = 0;
    for (std::size_t i = begin; i < end; ++i)
      value = value * 10 + static_cast<std::uint64_t>(source[i] - '0');
    return value;
  }

  static std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 1469598103934665603ull;
    for (char c : bytes) {
      hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      hash *= 1099511628211ull;
    }
    return hash;
  }

  std::size_t shards_;
  std::map<std::string, std::size_t, std::less<>> pinned_;
};

/// Per-shard replay watermark set: last event id consumed from each
/// shard. Replaces the single event-id cursor — shard id sequences are
/// independent dense sequences (each shard assigns ids 1,2,3,... for its
/// own store), so one scalar can no longer describe a consumer's
/// position.
struct VectorCursor {
  std::vector<common::EventId> last_ids;

  VectorCursor() = default;
  explicit VectorCursor(std::size_t shards) : last_ids(shards, 0) {}

  std::size_t size() const { return last_ids.size(); }
  /// Grow (never shrink) to cover `shards` slots.
  void ensure(std::size_t shards) {
    if (last_ids.size() < shards) last_ids.resize(shards, 0);
  }
  common::EventId at(std::size_t shard) const {
    return shard < last_ids.size() ? last_ids[shard] : 0;
  }
  void advance(std::size_t shard, common::EventId id) {
    ensure(shard + 1);
    if (id > last_ids[shard]) last_ids[shard] = id;
  }
  /// Total events consumed across shards (progress / lag arithmetic;
  /// equals the plain cursor when there is one shard).
  std::uint64_t sum() const {
    std::uint64_t total = 0;
    for (auto id : last_ids) total += id;
    return total;
  }
};

}  // namespace fsmon::scalable
