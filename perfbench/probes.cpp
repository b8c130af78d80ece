#include "perfbench/probes.hpp"

#include <memory>

#include "src/common/clock.hpp"
#include "src/eventstore/store.hpp"
#include "src/msgq/pubsub.hpp"
#include "src/scalable/aggregator.hpp"
#include "src/scalable/collector.hpp"
#include "src/scalable/sub_index.hpp"
#include "src/transport/inproc.hpp"
#include "src/transport/tcp.hpp"

namespace perfbench {

namespace {

using fsmon::core::EventBatch;
namespace transport = fsmon::transport;

/// Median send->recv time of one frame over a connected sender/receiver
/// pair, in microseconds; every hop is a span named `span_name`.
double hop_us(transport::Transport& carrier, const std::vector<std::byte>& frame,
              std::size_t iterations, Tracer& tracer, std::uint32_t parent,
              const std::string& span_name) {
  auto tx = carrier.make_sender(span_name + "-tx");
  auto rx = carrier.make_receiver(span_name + "-rx", 1024, transport::OverflowPolicy::kBlock);
  rx->subscribe("");
  tx->connect(rx);
  std::vector<std::int64_t> hops;
  for (std::size_t i = 0; i < iterations; ++i) {
    auto ref = transport::FrameRef::adopt(std::vector<std::byte>(frame));
    const std::int64_t t0 = now_ns();
    ScopedSpan span(&tracer, span_name, parent);
    tx->send("hop", std::move(ref));
    auto got = rx->recv(std::chrono::milliseconds(2000));
    if (!got) continue;
    span.set_items(1);
    hops.push_back(now_ns() - t0);
  }
  rx->close();
  return median(hops) / 1e3;
}

}  // namespace

std::unique_ptr<fsmon::scalable::Consumer> make_replay_consumer(
    fsmon::scalable::ScalableMonitor& monitor, std::string name,
    fsmon::scalable::Consumer::BatchCallback callback) {
  fsmon::scalable::ConsumerOptions options;
  options.high_water_mark = 1;
  options.overflow_policy = fsmon::common::OverflowPolicy::kDropNewest;
  options.ack_interval = 0;
  return std::make_unique<fsmon::scalable::Consumer>(monitor.bus(), monitor.sharded(),
                                                     std::move(name), std::move(options),
                                                     std::move(callback));
}

std::map<std::string, double> run_layer_probes(const ProbeInputs& in, Tracer& tracer,
                                               std::uint32_t parent) {
  std::map<std::string, double> out;
  fsmon::common::RealClock clock;
  auto& fs = in.fs;

  // Fresh changelog records: a probe changelog user and one probe
  // collector per MDT register first, then the op stream continues.
  fsmon::msgq::Bus bus;
  transport::InProcTransport inproc(bus);
  auto frames_rx = inproc.make_receiver("probe-frames", 1 << 20, transport::OverflowPolicy::kBlock);
  frames_rx->subscribe("");
  std::vector<std::string> users;
  std::vector<std::uint64_t> heads;
  std::vector<std::unique_ptr<fsmon::scalable::Collector>> collectors;
  fsmon::scalable::CollectorOptions copt;
  copt.resolver.base_cost = {};
  copt.resolver.per_component_cost = {};
  for (std::uint32_t m = 0; m < fs.mdt_count(); ++m) {
    users.push_back(fs.mds(m).register_changelog_user());
    heads.push_back(fs.mds(m).mdt().changelog().last_index());
    auto sender = inproc.make_sender("probe-collector" + std::to_string(m));
    sender->connect(frames_rx);
    collectors.push_back(
        std::make_unique<fsmon::scalable::Collector>(fs, m, sender, copt, clock));
  }
  OpRecord op;
  for (std::size_t i = 0; i < in.op_count; ++i) in.ops.apply_next(fs, op);

  // lustre: changelog_read in collector-sized batches, then fid2path on
  // every record's target FID (deleted and re-keyed FIDs fail, as they
  // do for a lagging collector).
  std::vector<fsmon::lustre::ChangelogRecord> records;
  for (std::uint32_t m = 0; m < fs.mdt_count(); ++m) {
    std::uint64_t after = heads[m];
    for (;;) {
      ScopedSpan span(&tracer, "lustre.changelog_read", parent);
      auto batch = fs.mds(m).changelog_read(users[m], 512, after);
      if (!batch || batch->empty()) break;
      span.set_items(batch->size());
      after = batch->back().index;
      records.insert(records.end(), batch->begin(), batch->end());
    }
  }
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < records.size(); i += 512) {
    const std::size_t end = std::min(records.size(), i + 512);
    ScopedSpan span(&tracer, "lustre.fid2path", parent);
    for (std::size_t j = i; j < end; ++j) resolved += fs.fid2path(records[j].target).is_ok();
    span.set_items(end - i);
  }
  out["lustre.changelog_read_ns_per_record"] = tracer.stat("lustre.changelog_read").ns_per_item();
  out["lustre.fid2path_ns"] = tracer.stat("lustre.fid2path").ns_per_item();
  out["lustre.fid2path_resolved_ratio"] =
      records.empty() ? 0 : static_cast<double>(resolved) / static_cast<double>(records.size());

  // collector: one synchronous drain per MDT (read, Algorithm 1 with the
  // fid cache, encode, publish into a buffering receiver).
  std::uint64_t hits = 0, misses = 0;
  for (auto& collector : collectors) {
    const std::uint64_t before = collector->events_published();
    ScopedSpan span(&tracer, "collector.drain_once", parent);
    collector->drain_once();
    span.set_items(collector->events_published() - before);
    const auto stats = collector->processor_stats();
    hits += stats.cache_hits;
    misses += stats.cache_misses;
  }
  out["collector.drain_ns_per_event"] = tracer.stat("collector.drain_once").ns_per_item();
  out["collector.fidcache_lookups"] = static_cast<double>(hits + misses);
  out["collector.fidcache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0;
  std::vector<transport::FrameRef> frames;
  while (auto frame = frames_rx->try_recv()) frames.push_back(std::move(frame->payload));
  collectors.clear();
  for (std::uint32_t m = 0; m < fs.mdt_count(); ++m)
    (void)fs.mds(m).deregister_changelog_user(users[m]);

  // core: decode every collector frame, re-encode every batch.
  std::vector<EventBatch> batches;
  for (const auto& frame : frames) {
    ScopedSpan span(&tracer, "core.decode_batch", parent);
    auto batch = fsmon::core::decode_batch(frame.bytes());
    if (!batch) continue;
    span.set_items(batch->size());
    batches.push_back(std::move(batch).take());
  }
  std::size_t encoded_bytes = 0;
  for (const auto& batch : batches) {
    ScopedSpan span(&tracer, "core.encode_batch", parent);
    encoded_bytes += fsmon::core::encode_batch(batch).size();
    span.set_items(batch.size());
  }
  out["core.decode_ns_per_event"] = tracer.stat("core.decode_batch").ns_per_item();
  out["core.encode_ns_per_event"] = tracer.stat("core.encode_batch").ns_per_item();
  out["core.encoded_bytes_per_event"] =
      tracer.stat("core.encode_batch").items > 0
          ? static_cast<double>(encoded_bytes) /
                static_cast<double>(tracer.stat("core.encode_batch").items)
          : 0;

  // hub: the shared subscription index with every subscriber's rules.
  fsmon::scalable::SubscriptionIndex index;
  for (const auto& rules : in.subscriber_rules) {
    std::vector<fsmon::core::CompiledRule> compiled;
    for (const auto& rule : rules) compiled.push_back(fsmon::core::CompiledRule::compile(rule));
    index.add_subscriber(compiled);
  }
  fsmon::scalable::DeliverySet deliveries;
  for (const auto& batch : batches) {
    ScopedSpan span(&tracer, "hub.match_batch", parent);
    index.match_batch(batch.events, deliveries);
    span.set_items(batch.size());
  }
  out["hub.match_ns_per_event"] = tracer.stat("hub.match_batch").ns_per_item();

  // eventstore: group append of every frame's event records, one flush,
  // then a full streaming replay.
  {
    fsmon::eventstore::EventStoreOptions sopt;
    sopt.directory = in.dir / "probe-store";
    fsmon::eventstore::EventStore store(sopt);
    fsmon::common::EventId next_id = 1;
    for (const auto& frame : frames) {
      auto view = fsmon::core::view_batch(frame.bytes());
      if (!view) continue;
      std::vector<std::span<const std::byte>> payloads;
      for (const auto& [offset, length] : view->events)
        payloads.push_back(frame.bytes().subspan(offset, length));
      ScopedSpan span(&tracer, "eventstore.append_batch", parent);
      if (store.append_batch(next_id, payloads).is_ok()) span.set_items(payloads.size());
      next_id += payloads.size();
    }
    {
      ScopedSpan span(&tracer, "eventstore.flush", parent);
      (void)store.flush();
    }
    std::uint64_t replayed = 0;
    {
      ScopedSpan span(&tracer, "eventstore.for_each_since", parent);
      (void)store.for_each_since(0, SIZE_MAX,
                                 [&](fsmon::common::EventId, std::span<const std::byte>, bool) {
                                   ++replayed;
                                   return true;
                                 });
      span.set_items(replayed);
    }
  }
  out["eventstore.append_ns_per_event"] = tracer.stat("eventstore.append_batch").ns_per_item();
  out["eventstore.replay_ns_per_event"] = tracer.stat("eventstore.for_each_since").ns_per_item();

  // eventstore merge: the 4-shard k-way merged read of the traced
  // round's stores, in consumer-sized pages.
  {
    auto& sharded = in.monitor.sharded();
    fsmon::scalable::VectorCursor cursor(sharded.shard_count());
    for (;;) {
      ScopedSpan span(&tracer, "eventstore.events_since_merged", parent);
      auto page = sharded.events_since(cursor, 4096);
      if (!page || page->empty()) break;
      span.set_items(page->size());
    }
  }
  out["eventstore.merge_ns_per_event"] = tracer.stat("eventstore.events_since_merged").ns_per_item();

  // consumer: a full historic replay from 0 through a catch-all consumer.
  {
    std::uint64_t delivered = 0;
    auto consumer = make_replay_consumer(
        in.monitor, "probe-replay",
        [&delivered](const EventBatch& batch) { delivered += batch.size(); });
    ScopedSpan span(&tracer, "consumer.replay_historic", parent);
    auto replayed = consumer->replay_historic(0);
    if (replayed) span.set_items(replayed.value());
  }
  out["consumer.replay_ns_per_event"] = tracer.stat("consumer.replay_historic").ns_per_item();

  // transport: send->recv of one live-sized frame, TCP and inproc.
  if (!batches.empty()) {
    EventBatch hop_batch;
    for (const auto& batch : batches) {
      for (const auto& event : batch.events) {
        if (hop_batch.size() >= std::max<std::size_t>(1, in.hop_frame_events)) break;
        hop_batch.events.push_back(event);
      }
    }
    const auto frame = fsmon::core::encode_batch(hop_batch);
    transport::TcpTransport tcp;
    out["transport.tcp_hop_us"] =
        hop_us(tcp, frame, in.hop_iterations, tracer, parent, "transport.tcp_hop");
    fsmon::msgq::Bus hop_bus;
    transport::InProcTransport hop_inproc(hop_bus);
    out["transport.inproc_hop_us"] =
        hop_us(hop_inproc, frame, in.hop_iterations, tracer, parent, "transport.inproc_hop");
  }

  // aggregator: one synchronous pump + persist of every collector frame
  // (CRC check, dedup scan, in-place id patch, fan-out, WAL group append).
  // Runs last: the id patch rewrites the frames in place.
  {
    fsmon::msgq::Bus agg_bus;
    fsmon::scalable::AggregatorOptions aopt;
    fsmon::eventstore::EventStoreOptions sopt;
    sopt.directory = in.dir / "probe-aggregator";
    aopt.store = sopt;
    fsmon::scalable::Aggregator aggregator(agg_bus, "probe-aggregator", aopt, clock);
    auto feed = aggregator.transport().make_sender("probe-feed");
    feed->connect(aggregator.input());
    for (auto& frame : frames) feed->send("probe/mdt", std::move(frame));
    frames.clear();
    ScopedSpan span(&tracer, "aggregator.drain_once", parent);
    aggregator.drain_once();
    span.set_items(aggregator.aggregated());
  }
  out["aggregator.drain_ns_per_event"] = tracer.stat("aggregator.drain_once").ns_per_item();
  return out;
}

}  // namespace perfbench
