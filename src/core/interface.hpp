// Interface layer.
//
// "The topmost layer provides an interface for users and programs to
// interact with FSMonitor ... If users provide an event identifier,
// FSMonitor will only report events that have happened since that event.
// This layer is also responsible for providing fault-tolerance by
// storing all events received from the resolution layer into an event
// store" (Section III-A3).
//
// Responsibilities implemented here: event-id assignment, per-subscriber
// filtering (including the recursive-monitoring rule), batched callback
// delivery, replay-since-id from the reliable event store, and the
// acknowledge/purge cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/status.hpp"
#include "src/core/event.hpp"
#include "src/core/filter.hpp"
#include "src/eventstore/store.hpp"

namespace fsmon::core {

struct InterfaceOptions {
  /// When set, events are persisted for replay; when null the layer is
  /// delivery-only (no fault tolerance), like a bare native monitor.
  std::optional<eventstore::EventStoreOptions> store;
  /// Deliver callbacks in batches up to this size.
  std::size_t delivery_batch = 256;
};

using SubscriptionId = std::uint64_t;

/// Events with id > `after_id` in `store`, up to `max_events`, each
/// decoded once straight from the store's payload view (no StoredEvent
/// copy). An unreadable segment ends the read early (logged), as
/// EventStore::events_since does; a corrupt payload is an error. The
/// decode runs under the store lock, so callers page in bounded chunks.
common::Result<std::vector<StdEvent>> decode_events_since(
    const eventstore::EventStore& store, common::EventId after_id,
    std::size_t max_events = SIZE_MAX);

class InterfaceLayer {
 public:
  using EventSink = std::function<void(const std::vector<StdEvent>&)>;

  explicit InterfaceLayer(InterfaceOptions options);

  /// Register a subscriber; events matching `rule` are delivered to
  /// `sink` (on the resolution worker thread).
  SubscriptionId subscribe(FilterRule rule, EventSink sink);
  void unsubscribe(SubscriptionId id);
  std::size_t subscriber_count() const;

  /// Ingest a processed batch from the resolution layer: assign ids,
  /// persist, dispatch to matching subscribers.
  void ingest(std::vector<StdEvent> batch);

  /// Replay: events with id > after_id from the event store. Requires a
  /// configured store.
  common::Result<std::vector<StdEvent>> events_since(common::EventId after_id,
                                                     std::size_t max_events = SIZE_MAX) const;

  /// Flag events as reported; they become eligible for the next purge
  /// cycle.
  void acknowledge(common::EventId up_to_id);

  /// Drop acknowledged events from the store; returns records removed.
  std::size_t purge();

  common::EventId last_event_id() const;
  std::uint64_t ingested() const;
  bool has_store() const { return store_ != nullptr; }
  const eventstore::EventStore* store() const { return store_.get(); }

 private:
  struct Subscription {
    FilterRule rule;
    EventSink sink;
  };

  InterfaceOptions options_;
  std::unique_ptr<eventstore::EventStore> store_;
  mutable std::mutex mu_;
  std::map<SubscriptionId, Subscription> subscriptions_;
  SubscriptionId next_subscription_ = 1;
  common::EventId next_event_id_ = 1;
  std::uint64_t ingested_ = 0;
};

}  // namespace fsmon::core
