#include "src/core/interface.hpp"

#include "src/common/logging.hpp"

namespace fsmon::core {

using common::ErrorCode;
using common::Result;
using common::Status;

Result<std::vector<StdEvent>> decode_events_since(const eventstore::EventStore& store,
                                                  common::EventId after_id,
                                                  std::size_t max_events) {
  std::vector<StdEvent> out;
  Status decode_status = Status::ok();
  auto status = store.for_each_since(
      after_id, max_events,
      [&](common::EventId, std::span<const std::byte> payload, bool) {
        auto decoded = deserialize_event(payload, out.emplace_back());
        if (decoded) return true;
        decode_status = decoded.status();
        return false;
      });
  if (!decode_status.is_ok()) return decode_status;
  if (!status.is_ok())
    FSMON_WARN("eventstore", "events_since stopped early: ", status.to_string());
  return out;
}

InterfaceLayer::InterfaceLayer(InterfaceOptions options) : options_(std::move(options)) {
  if (options_.store) {
    store_ = std::make_unique<eventstore::EventStore>(*options_.store);
    // Continue numbering after anything recovered from disk.
    next_event_id_ = store_->last_id() + 1;
  }
}

SubscriptionId InterfaceLayer::subscribe(FilterRule rule, EventSink sink) {
  std::lock_guard lock(mu_);
  const SubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, Subscription{std::move(rule), std::move(sink)});
  return id;
}

void InterfaceLayer::unsubscribe(SubscriptionId id) {
  std::lock_guard lock(mu_);
  subscriptions_.erase(id);
}

std::size_t InterfaceLayer::subscriber_count() const {
  std::lock_guard lock(mu_);
  return subscriptions_.size();
}

void InterfaceLayer::ingest(std::vector<StdEvent> batch) {
  if (batch.empty()) return;
  // Snapshot subscriptions so sinks run without holding the lock.
  std::vector<Subscription> subs;
  {
    std::lock_guard lock(mu_);
    for (auto& event : batch) event.id = next_event_id_++;
    ingested_ += batch.size();
    subs.reserve(subscriptions_.size());
    for (const auto& [id, sub] : subscriptions_) subs.push_back(sub);
  }
  if (store_ != nullptr) {
    std::vector<std::byte> buffer;
    for (const auto& event : batch) {
      buffer.clear();
      serialize_event(event, buffer);
      if (auto s = store_->append(event.id, buffer); !s.is_ok()) {
        FSMON_ERROR("interface", "event store append failed: ", s.to_string());
      }
    }
  }
  std::vector<StdEvent> matched;
  for (const auto& sub : subs) {
    matched.clear();
    for (const auto& event : batch) {
      if (sub.rule.matches(event)) matched.push_back(event);
    }
    for (std::size_t i = 0; i < matched.size(); i += options_.delivery_batch) {
      const auto end = std::min(matched.size(), i + options_.delivery_batch);
      sub.sink(std::vector<StdEvent>(matched.begin() + static_cast<std::ptrdiff_t>(i),
                                     matched.begin() + static_cast<std::ptrdiff_t>(end)));
    }
  }
}

Result<std::vector<StdEvent>> InterfaceLayer::events_since(common::EventId after_id,
                                                           std::size_t max_events) const {
  if (store_ == nullptr)
    return Status(ErrorCode::kUnavailable, "no event store configured");
  return decode_events_since(*store_, after_id, max_events);
}

void InterfaceLayer::acknowledge(common::EventId up_to_id) {
  if (store_ != nullptr) store_->mark_reported(up_to_id);
}

std::size_t InterfaceLayer::purge() {
  return store_ == nullptr ? 0 : store_->purge_reported();
}

common::EventId InterfaceLayer::last_event_id() const {
  std::lock_guard lock(mu_);
  return next_event_id_ - 1;
}

std::uint64_t InterfaceLayer::ingested() const {
  std::lock_guard lock(mu_);
  return ingested_;
}

}  // namespace fsmon::core
