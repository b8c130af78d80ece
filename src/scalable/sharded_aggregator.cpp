#include "src/scalable/sharded_aggregator.hpp"

#include "src/common/logging.hpp"
#include "src/transport/inproc.hpp"

namespace fsmon::scalable {

using common::Result;
using common::Status;

ShardedAggregator::ShardedAggregator(msgq::Bus& bus, const std::string& name,
                                     ShardedAggregatorOptions options,
                                     common::Clock& clock)
    : map_(options.shards) {
  if (options.transport != nullptr) {
    transport_ = options.transport;
  } else {
    owned_transport_ = std::make_unique<transport::InProcTransport>(bus);
    transport_ = owned_transport_.get();
  }
  if (options.aggregator.metrics != nullptr)
    transport_->attach_metrics(options.aggregator.metrics);
  const std::size_t n = map_.shards();
  shards_.reserve(n);
  topics_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    AggregatorOptions shard_options = options.aggregator;
    shard_options.transport = transport_;
    std::string shard_name = name;
    if (n > 1) {
      const std::string suffix = "shard" + std::to_string(k);
      shard_name += "/" + suffix;
      shard_options.output_topic += "/" + suffix;
      if (shard_options.store)
        shard_options.store->directory /= suffix;
      shard_options.labels.emplace("shard", std::to_string(k));
      shard_options.fault_scope = "aggregator." + suffix + ".";
    }
    topics_.push_back(shard_options.output_topic);
    shards_.push_back(std::make_unique<Aggregator>(bus, std::move(shard_name),
                                                   std::move(shard_options), clock));
  }
  // One router sender per shard, wired straight to that shard's fan-in
  // receiver. The router hands each frame to exactly one of these; the
  // handoff cost is whatever the transport makes it (a refcount bump
  // in-proc, one ring write over shm).
  std::vector<std::shared_ptr<transport::Sender>> senders;
  senders.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto sender = transport_->make_sender(name + "/router/shard" + std::to_string(k));
    sender->connect(shards_[k]->input());
    senders.push_back(std::move(sender));
  }
  router_ = std::make_unique<ShardRouter>(map_, std::move(senders), clock,
                                          options.aggregator.metrics);
}

Status ShardedAggregator::start() {
  for (auto& shard : shards_) {
    if (auto s = shard->start(); !s.is_ok()) return s;
  }
  return Status::ok();
}

void ShardedAggregator::stop() {
  for (auto& shard : shards_) shard->stop();
}

void ShardedAggregator::set_ack_callback(Aggregator::AckCallback callback) {
  for (auto& shard : shards_) shard->set_ack_callback(callback);
}

void ShardedAggregator::set_nack_callback(Aggregator::NackCallback callback) {
  for (auto& shard : shards_) shard->set_nack_callback(callback);
}

namespace {

/// One shard's side of the merge: a page of that shard's stored payloads,
/// copied out of the store back to back into one buffer (one memcpy per
/// record, no per-record allocation) and consumed front to back.
struct MergeHead {
  struct Record {
    common::EventId id = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::vector<std::byte> bytes;
  std::vector<Record> records;
  std::size_t pos = 0;
  bool exhausted = false;         ///< The store had nothing past this page.
  common::TimePoint timestamp{};  ///< Of records[pos]; read without decoding.

  bool drained() const { return pos >= records.size(); }
  std::span<const std::byte> payload() const {
    const Record& record = records[pos];
    return std::span(bytes).subspan(record.offset, record.length);
  }
  /// Peek the merge key of the record now at the head, if any.
  Status load_timestamp() {
    if (drained()) return Status::ok();
    auto ts = core::peek_event_timestamp(payload());
    if (!ts) return ts.status();
    timestamp = ts.value();
    return Status::ok();
  }
};

}  // namespace

Result<std::vector<core::StdEvent>> ShardedAggregator::events_since(
    VectorCursor& cursor, std::size_t max_events) const {
  const std::size_t n = shards_.size();
  cursor.ensure(n);
  std::vector<core::StdEvent> out;
  if (max_events == 0) return out;

  // One page of raw payloads per shard, refilled independently as heads
  // drain, so an arbitrarily deep merged backlog holds at most n * chunk
  // payloads at a time. The store lock is held only while a page is
  // copied out; the merge, and every decode, run after it is released.
  // Heads compare on timestamps peeked from the payload bytes, and only
  // the event the merge emits is decoded — straight into `out`. Records
  // a page loaded but the merge did not reach cost one memcpy, never a
  // decode, and are simply re-read by the next call.
  const std::size_t chunk =
      std::min<std::size_t>(4096, std::max<std::size_t>(max_events / n, 1));
  std::vector<MergeHead> heads(n);
  auto refill = [&](std::size_t k) -> Status {
    MergeHead& head = heads[k];
    head.bytes.clear();
    head.records.clear();
    head.pos = 0;
    const eventstore::EventStore* store = shards_[k]->store();
    if (store == nullptr)
      return Status(common::ErrorCode::kUnavailable, "aggregator has no event store");
    // Size the page once (records on hand, capped at chunk, times the
    // first payload's size) rather than growing it record by record.
    const common::EventId after = cursor.last_ids[k];
    const std::size_t expected = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk, store->last_id() - std::min(after, store->last_id())));
    head.records.reserve(expected);
    auto status = store->for_each_since(
        after, chunk,
        [&head, expected](common::EventId id, std::span<const std::byte> payload, bool) {
          if (head.records.empty()) head.bytes.reserve(expected * payload.size());
          head.records.push_back({id, head.bytes.size(), payload.size()});
          head.bytes.insert(head.bytes.end(), payload.begin(), payload.end());
          return true;
        });
    // An unreadable segment ends the page early, and so this shard's
    // part of the call, as Aggregator::events_since does.
    if (!status.is_ok())
      FSMON_WARN("aggregator", "merged replay page stopped early: ", status.to_string());
    if (head.records.size() < chunk) head.exhausted = true;
    return head.load_timestamp();
  };
  std::size_t loaded = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (auto s = refill(k); !s.is_ok()) return s;
    loaded += heads[k].records.size();
  }
  out.reserve(std::min(max_events, loaded));

  while (out.size() < max_events) {
    // Pop the smallest (timestamp, shard) head. Head comparison only:
    // within a shard the store order (its id order) is never disturbed,
    // so the merged stream restricted to one shard IS that shard's
    // replay — the permutation-free contract.
    std::size_t best = n;
    for (std::size_t k = 0; k < n; ++k) {
      if (heads[k].drained()) continue;
      if (best == n || heads[k].timestamp < heads[best].timestamp) best = k;
    }
    if (best == n) break;  // every shard drained
    MergeHead& head = heads[best];
    if (auto decoded = core::deserialize_event(head.payload(), out.emplace_back());
        !decoded)
      return decoded.status();
    cursor.last_ids[best] = head.records[head.pos].id;
    ++head.pos;
    const Status next = head.drained() && !head.exhausted ? refill(best)
                                                           : head.load_timestamp();
    if (!next.is_ok()) return next;
  }
  return out;
}

void ShardedAggregator::acknowledge(const VectorCursor& cursor) {
  const std::size_t n = std::min(cursor.size(), shards_.size());
  for (std::size_t k = 0; k < n; ++k) {
    if (cursor.last_ids[k] > 0) shards_[k]->acknowledge(cursor.last_ids[k]);
  }
}

std::size_t ShardedAggregator::purge() {
  std::size_t purged = 0;
  for (auto& shard : shards_) purged += shard->purge();
  return purged;
}

std::uint64_t ShardedAggregator::last_event_id_sum() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->last_event_id();
  return total;
}

std::uint64_t ShardedAggregator::aggregated() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->aggregated();
  return total;
}

std::uint64_t ShardedAggregator::persisted() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->persisted();
  return total;
}

bool ShardedAggregator::any_crashed() const {
  for (const auto& shard : shards_) {
    if (shard->crashed()) return true;
  }
  return false;
}

}  // namespace fsmon::scalable
