#include "src/scalable/sim_driver.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/histogram.hpp"
#include "src/common/random.hpp"
#include "src/lustre/fid_resolver.hpp"
#include "src/scalable/processor.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/service_station.hpp"

namespace fsmon::scalable {

using common::Duration;
using common::TimePoint;

std::string_view to_string(SimWorkload workload) {
  switch (workload) {
    case SimWorkload::kMixed: return "mixed";
    case SimWorkload::kCreateDelete: return "create+delete";
    case SimWorkload::kCreateModify: return "create+modify";
    case SimWorkload::kCreateOnly: return "create-only";
    case SimWorkload::kModifyOnly: return "modify-only";
    case SimWorkload::kDeleteOnly: return "delete-only";
  }
  return "?";
}

namespace {

constexpr double kBytesPerMb = 1024.0 * 1024.0;

/// One client stream: its own directory and a rotating window of files.
struct Stream {
  std::string dir;
  bool dir_created = false;
  std::deque<std::string> live;  // oldest first
  std::uint64_t next_file = 0;
  int phase = 0;  // cycles through the workload's op sequence
};

/// Drives Evaluate_Performance_Script-style load onto the LustreFs.
class WorkloadDriver {
 public:
  /// When `target_mdt` is >= 0, every stream directory is chosen (by
  /// probing DNE placement) to land on that MDT, reproducing the paper's
  /// balanced per-MDS generation ("events are generated from all four
  /// MDSs", Section V-D1).
  WorkloadDriver(lustre::LustreFs& fs, const SimConfig& config, int target_mdt = -1)
      : fs_(fs),
        config_(config),
        rng_(config.seed + static_cast<std::uint64_t>(target_mdt + 1) * 7919),
        zipf_(std::max<std::size_t>(1, config.profile.dir_pool),
              config.profile.dir_zipf_skew) {
    const std::string base =
        target_mdt < 0 ? "/perf" : "/perf" + std::to_string(target_mdt);
    fs_.mkdir(base);
    streams_.resize(zipf_.size());
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      std::string dir = base + "/d" + std::to_string(i);
      if (target_mdt >= 0) {
        // Probe salted names until DNE placement lands on the target.
        for (std::uint32_t salt = 0;; ++salt) {
          auto placement = fs_.preview_dir_placement(dir);
          if (placement && *placement == static_cast<std::uint32_t>(target_mdt)) break;
          dir = base + "/d" + std::to_string(i) + "s" + std::to_string(salt);
        }
      }
      streams_[i].dir = std::move(dir);
    }
  }

  /// Execute one metadata operation; returns true when an event-producing
  /// operation actually ran.
  bool step() {
    Stream& stream = streams_[zipf_.sample(rng_)];
    if (!stream.dir_created) {
      // Directory setup is not counted as a workload event (it runs once
      // per stream, like the script's setup phase) but it does appear in
      // the changelog like any other operation.
      fs_.mkdir(stream.dir);
      stream.dir_created = true;
    }
    switch (config_.workload) {
      case SimWorkload::kMixed:
        switch (stream.phase) {
          case 0: do_create(stream); break;
          case 1: do_modify(stream); break;
          default: do_delete(stream); break;
        }
        stream.phase = (stream.phase + 1) % 3;
        return true;
      case SimWorkload::kCreateDelete:
        if (stream.phase == 0) {
          do_create(stream);
        } else {
          do_delete(stream);
        }
        stream.phase ^= 1;
        return true;
      case SimWorkload::kCreateModify:
        // Bound the live set: rotate create/modify over the window.
        if (stream.phase == 0 && stream.live.size() < config_.files_per_stream) {
          do_create(stream);
        } else {
          do_modify(stream);
        }
        stream.phase ^= 1;
        return true;
      case SimWorkload::kCreateOnly: do_create(stream); return true;
      case SimWorkload::kModifyOnly:
        if (stream.live.empty()) do_create(stream);  // seed, still an event
        do_modify(stream);
        return true;
      case SimWorkload::kDeleteOnly:
        if (stream.live.empty()) do_create(stream);
        do_delete(stream);
        return true;
    }
    return false;
  }

 private:
  void do_create(Stream& stream) {
    const std::string path = stream.dir + "/f" + std::to_string(stream.next_file++);
    if (fs_.create(path).is_ok()) stream.live.push_back(path);
  }

  void do_modify(Stream& stream) {
    if (stream.live.empty()) {
      do_create(stream);
      return;
    }
    fs_.modify(stream.live.back(), 4096);
  }

  void do_delete(Stream& stream) {
    // Delete the oldest file once the window is full; otherwise keep
    // growing the window (so early deletes do not starve the stream).
    if (stream.live.size() < std::max<std::size_t>(1, config_.files_per_stream)) {
      if (stream.live.empty()) {
        do_create(stream);
        return;
      }
    }
    const std::string victim = stream.live.front();
    stream.live.pop_front();
    fs_.unlink(victim);
  }

  lustre::LustreFs& fs_;
  const SimConfig& config_;
  common::Rng rng_;
  common::ZipfSampler zipf_;
  std::vector<Stream> streams_;
};

/// Collector state in the simulation: real processor + cache, virtual
/// time accounting.
struct SimCollector {
  std::unique_ptr<lustre::FidResolver> resolver;
  std::unique_ptr<EventProcessor::FidCache> cache;
  std::unique_ptr<EventProcessor> processor;
  std::string user_id;
  common::ModeledUsage usage;
  std::uint64_t processed = 0;
  std::size_t peak_backlog = 0;
  std::uint64_t peak_memory_bytes = 0;
  /// Robinhood mode: processed events waiting for the client poller.
  std::deque<core::StdEvent> outbox;
  std::size_t peak_outbox = 0;
  bool busy = false;
};

struct SimState {
  const SimConfig& config;
  sim::Engine engine;
  std::unique_ptr<lustre::LustreFs> fs;
  std::vector<std::unique_ptr<WorkloadDriver>> drivers;  // one per MDS
  /// Each driver's arrival closure; it reschedules itself by copy.
  std::vector<std::function<void()>> arrivals;
  std::vector<SimCollector> collectors;
  std::uint64_t generated = 0;
  std::uint64_t reported = 0;
  std::uint64_t per_mds_reported[16] = {};
  // Aggregator / consumer as serial stations.
  std::unique_ptr<sim::ServiceStation> aggregator;
  std::unique_ptr<sim::ServiceStation> consumer;
  common::Histogram latency_ns;  ///< Operation time -> consumer delivery.
  std::size_t aggregator_peak_queue = 0;
  std::size_t consumer_peak_queue = 0;
  obs::Counter* generated_counter = nullptr;
  obs::Counter* reported_counter = nullptr;
  obs::HistogramMetric* delivery_latency_hist = nullptr;
  obs::Gauge* aggregator_peak_gauge = nullptr;
  obs::Gauge* consumer_peak_gauge = nullptr;
  obs::HistogramMetric* batch_size_hist = nullptr;

  explicit SimState(const SimConfig& cfg) : config(cfg) {
    lustre::LustreFsOptions fs_options = cfg.profile.fs_options;
    fs_options.mdt_count = std::max<std::uint32_t>(1, cfg.mds_count);
    fs = std::make_unique<lustre::LustreFs>(fs_options, engine.clock());
    if (fs_options.mdt_count == 1) {
      drivers.push_back(std::make_unique<WorkloadDriver>(*fs, cfg));
    } else {
      // Balanced per-MDS load, as in the paper's multi-MDS experiment.
      for (std::uint32_t m = 0; m < fs_options.mdt_count; ++m)
        drivers.push_back(std::make_unique<WorkloadDriver>(*fs, cfg, static_cast<int>(m)));
    }

    lustre::FidResolverOptions resolver_options;
    resolver_options.base_cost = cfg.profile.fid2path_cost;
    resolver_options.per_component_cost = Duration::zero();

    ProcessorCosts costs;
    costs.base_latency = cfg.profile.collector_base_cost;
    costs.base_cpu = cfg.profile.collector_base_cpu;
    costs.fid2path_cpu = cfg.profile.fid2path_cpu;
    costs.cache_lookup_coeff = cfg.profile.cache_lookup_coeff;

    collectors.resize(fs_options.mdt_count);
    for (std::uint32_t i = 0; i < fs_options.mdt_count; ++i) {
      auto& c = collectors[i];
      c.resolver = std::make_unique<lustre::FidResolver>(*fs, resolver_options, nullptr);
      if (cfg.cache_size > 0)
        c.cache = std::make_unique<EventProcessor::FidCache>(cfg.cache_size);
      c.processor = std::make_unique<EventProcessor>(*c.resolver, c.cache.get(), costs,
                                                     "lustre:MDT" + std::to_string(i));
      c.user_id = fs->mds(i).register_changelog_user();
    }
    aggregator = std::make_unique<sim::ServiceStation>(engine, "aggregator");
    consumer = std::make_unique<sim::ServiceStation>(engine, "consumer");

    if (cfg.metrics != nullptr) {
      auto& registry = *cfg.metrics;
      fs->attach_metrics(registry);
      for (std::uint32_t i = 0; i < fs_options.mdt_count; ++i) {
        const obs::Labels labels{{"mdt", std::to_string(i)}};
        collectors[i].resolver->attach_metrics(registry, labels);
        collectors[i].processor->attach_metrics(registry, labels);
      }
      generated_counter = &registry.counter(
          "sim.events_generated", {}, "Metadata operations generated by the workload",
          "events");
      reported_counter = &registry.counter(
          "sim.events_reported", {}, "Events delivered to the simulated consumer",
          "events");
      delivery_latency_hist = &registry.histogram(
          "consumer.delivery_latency_us", {},
          "Operation time to consumer delivery (virtual time)", "us");
      aggregator_peak_gauge = &registry.gauge("aggregator.queue_depth_peak", {},
                                              "High-water mark of the fan-in backlog",
                                              "events");
      consumer_peak_gauge = &registry.gauge("consumer.queue_depth_peak", {},
                                            "High-water mark of the consumer inbox",
                                            "events");
      batch_size_hist = &registry.histogram(
          "aggregator.batch_size", {},
          "Events per batch frame pumped through the aggregator", "events");
    }
  }

  double per_mds_rate() const {
    return config.rate_override > 0 ? config.rate_override
                                    : config.profile.mixed_event_rate;
  }

  void schedule_generation() {
    // One deterministic arrival process per driver, phase-offset so
    // multi-MDS arrivals interleave rather than burst.
    const auto interval = common::from_seconds(1.0 / per_mds_rate());
    arrivals.resize(drivers.size());
    for (std::size_t d = 0; d < drivers.size(); ++d) {
      arrivals[d] = [this, interval, d] {
        if (engine.now().time_since_epoch() >= config.duration) return;
        if (drivers[d]->step()) {
          ++generated;
          if (generated_counter != nullptr) generated_counter->inc();
        }
        engine.schedule(interval, arrivals[d]);
      };
      engine.schedule(interval * static_cast<std::int64_t>(d) /
                          static_cast<std::int64_t>(drivers.size()),
                      arrivals[d]);
    }
  }

  void sample_collector_memory(std::uint32_t i) {
    auto& c = collectors[i];
    const std::size_t backlog = fs->mds(i).mdt().changelog().retained() + c.outbox.size();
    c.peak_backlog = std::max(c.peak_backlog, backlog);
    const std::uint64_t mem =
        config.profile.collector_base_bytes +
        static_cast<std::uint64_t>(backlog) * config.profile.event_bytes +
        static_cast<std::uint64_t>(c.cache ? c.cache->size() : 0) *
            config.profile.cache_entry_bytes;
    c.peak_memory_bytes = std::max(c.peak_memory_bytes, mem);
  }

  /// Deliver one event into the aggregator -> consumer chain.
  void submit_downstream(std::uint32_t mds_index, common::TimePoint op_time) {
    aggregator->usage().charge_busy(config.profile.aggregator_event_cpu);
    aggregator->submit(config.profile.aggregator_event_cost, [this, mds_index, op_time] {
      consumer->usage().charge_busy(config.profile.consumer_event_cpu);
      consumer->submit(config.profile.consumer_event_cost, [this, mds_index, op_time] {
        if (engine.now().time_since_epoch() <= config.duration) {
          ++reported;
          ++per_mds_reported[mds_index % 16];
          const auto lag_ns = (engine.now() - op_time).count();
          latency_ns.record(static_cast<std::uint64_t>(lag_ns));
          if (reported_counter != nullptr) {
            reported_counter->inc();
            delivery_latency_hist->record(static_cast<std::uint64_t>(lag_ns / 1000));
          }
        }
      });
      consumer_peak_queue = std::max(consumer_peak_queue, consumer->queue_depth());
      if (consumer_peak_gauge != nullptr)
        consumer_peak_gauge->set_max(static_cast<std::int64_t>(consumer->queue_depth()));
    });
    aggregator_peak_queue = std::max(aggregator_peak_queue, aggregator->queue_depth());
    if (aggregator_peak_gauge != nullptr)
      aggregator_peak_gauge->set_max(static_cast<std::int64_t>(aggregator->queue_depth()));
  }

  /// Collector tick: batch-read, process (charging serial latency), then
  /// hand off and reschedule.
  void collector_tick(std::uint32_t i, std::size_t batch, Duration poll_interval,
                      bool robinhood_mode) {
    auto& c = collectors[i];
    if (c.busy) return;
    sample_collector_memory(i);
    if (engine.now().time_since_epoch() >= config.duration &&
        fs->mds(i).mdt().changelog().retained() == 0)
      return;  // run is over and nothing left to do
    auto records = fs->mds(i).changelog_read(c.user_id, batch);
    if (!records || records.value().empty()) {
      engine.schedule(poll_interval, [this, i, batch, poll_interval, robinhood_mode] {
        collector_tick(i, batch, poll_interval, robinhood_mode);
      });
      return;
    }
    Duration total_latency = config.changelog_read_overhead;
    std::vector<core::StdEvent> outputs;
    outputs.reserve(records.value().size());
    for (const auto& record : records.value()) {
      auto out = c.processor->process(record);
      total_latency += out.latency;
      c.usage.charge_busy(out.cpu);
      for (auto& event : out.events) outputs.push_back(std::move(event));
    }
    const std::uint64_t last_index = records.value().back().index;
    const std::size_t n = records.value().size();
    c.busy = true;
    engine.schedule(total_latency, [this, i, batch, poll_interval, robinhood_mode,
                                    last_index, n,
                                    outputs = std::move(outputs)]() mutable {
      auto& col = collectors[i];
      col.busy = false;
      col.processed += n;
      fs->mds(i).changelog_clear(col.user_id, last_index);
      if (robinhood_mode) {
        for (auto& event : outputs) col.outbox.push_back(std::move(event));
        col.peak_outbox = std::max(col.peak_outbox, col.outbox.size());
      } else {
        if (batch_size_hist != nullptr && !outputs.empty())
          batch_size_hist->record(outputs.size());
        for (auto& event : outputs) submit_downstream(i, event.timestamp);
      }
      sample_collector_memory(i);
      collector_tick(i, batch, poll_interval, robinhood_mode);
    });
  }

  SimReport report() const {
    SimReport r;
    const double seconds = common::to_seconds(config.duration);
    r.generated = generated;
    r.reported = reported;
    r.generated_rate = generated / seconds;
    r.reported_rate = reported / seconds;
    for (int i = 0; i < 16; ++i) r.per_mds_reported[i] = per_mds_reported[i];

    double cpu_sum = 0;
    double mem_max = 0;
    std::uint64_t hits = 0, lookups = 0;
    for (const auto& c : collectors) {
      cpu_sum += c.usage.cpu_percent(config.duration);
      mem_max = std::max(mem_max, static_cast<double>(c.peak_memory_bytes) / kBytesPerMb);
      r.fid2path_calls += c.processor->stats().fid2path_calls;
      r.fid2path_failures += c.processor->stats().fid2path_failures;
      r.unresolved += c.processor->stats().unresolved;
      hits += c.processor->stats().cache_hits;
      lookups += c.processor->stats().cache_hits + c.processor->stats().cache_misses;
      r.peak_backlog_records = std::max(r.peak_backlog_records, c.peak_backlog);
    }
    r.collector.cpu_percent = cpu_sum / static_cast<double>(collectors.size());
    r.collector.memory_mb = mem_max;
    r.cache_hit_rate = lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;

    r.aggregator.cpu_percent = aggregator->usage().cpu_percent(config.duration);
    r.aggregator.memory_mb =
        (config.profile.aggregator_base_bytes +
         static_cast<double>(aggregator_peak_queue) * config.profile.event_bytes) /
        kBytesPerMb;
    r.consumer.cpu_percent = consumer->usage().cpu_percent(config.duration);
    r.consumer.memory_mb =
        (config.profile.consumer_base_bytes +
         static_cast<double>(consumer_peak_queue) * config.profile.event_bytes) /
        kBytesPerMb;
    r.latency_p50_ms = latency_ns.quantile(0.5) / 1e6;
    r.latency_p99_ms = latency_ns.quantile(0.99) / 1e6;
    r.latency_max_ms = static_cast<double>(latency_ns.max()) / 1e6;
    return r;
  }
};

}  // namespace

SimReport run_pipeline_sim(const SimConfig& config) {
  SimState state(config);
  state.schedule_generation();
  const Duration poll = std::chrono::milliseconds(1);
  for (std::uint32_t i = 0; i < state.collectors.size(); ++i)
    state.collector_tick(i, config.collector_batch, poll, /*robinhood_mode=*/false);
  // Run generation plus a bounded drain window.
  state.engine.run_until(TimePoint{} + config.duration + std::chrono::seconds(2));
  return state.report();
}

SimReport run_robinhood_sim(const SimConfig& config) {
  SimState state(config);
  state.schedule_generation();
  const Duration poll = std::chrono::milliseconds(1);
  for (std::uint32_t i = 0; i < state.collectors.size(); ++i)
    state.collector_tick(i, config.collector_batch, poll, /*robinhood_mode=*/true);

  // Client-side round-robin poller: per visit pay an RPC round trip,
  // then ingest up to robinhood_batch events at the per-event cost.
  // Owned here, not by its own closures; the engine runs before it goes.
  std::function<void(std::uint32_t)> poller;
  auto& engine = state.engine;
  const auto& profile = config.profile;
  poller = [&state, &engine, &profile, &poller, &config](std::uint32_t index) {
    if (engine.now().time_since_epoch() >= config.duration + std::chrono::seconds(2)) return;
    auto& c = state.collectors[index];
    const std::size_t n = std::min(c.outbox.size(), profile.robinhood_batch);
    for (std::size_t k = 0; k < n; ++k) c.outbox.pop_front();
    const Duration visit_cost =
        profile.robinhood_poll_rtt +
        profile.robinhood_event_cost * static_cast<std::int64_t>(n);
    const std::uint32_t next = (index + 1) % static_cast<std::uint32_t>(state.collectors.size());
    engine.schedule(visit_cost, [&state, &poller, next, n, index, &config] {
      if (state.engine.now().time_since_epoch() <= config.duration) {
        state.reported += n;
        state.per_mds_reported[index % 16] += n;
      }
      poller(next);
    });
  };
  engine.schedule(Duration::zero(), [&poller] { poller(0); });
  state.engine.run_until(TimePoint{} + config.duration + std::chrono::seconds(2));
  return state.report();
}

}  // namespace fsmon::scalable
