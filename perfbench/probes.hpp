// Per-layer probes of the traced run: after the traced round the
// benchmark calls each layer's public functions directly on inputs drawn
// from the same seeded op stream and times every call with a span.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.hpp"
#include "src/scalable/scalable_monitor.hpp"

namespace perfbench {

struct ProbeInputs {
  fsmon::lustre::LustreFs& fs;
  OpStream& ops;  ///< Continues the round's seeded op stream.
  /// The traced round's pipeline, stopped, with its stores intact.
  fsmon::scalable::ScalableMonitor& monitor;
  /// Rule set of every hub subscriber (empty = catch-all).
  const std::vector<std::vector<fsmon::core::FilterRule>>& subscriber_rules;
  std::filesystem::path dir;  ///< Scratch space for probe stores.
  std::size_t op_count = 0;   ///< Fresh changelog records for the probes.
  std::size_t hop_frame_events = 1;  ///< Events in the transport hop frame.
  std::size_t hop_iterations = 100;
};

/// A consumer for historic replay only: never started and kept out of the
/// hub, so it does not follow live delivery (its private inbox holds one
/// frame and drops the rest) and never acknowledges. Replays through
/// Consumer::replay_historic on the caller's thread.
std::unique_ptr<fsmon::scalable::Consumer> make_replay_consumer(
    fsmon::scalable::ScalableMonitor& monitor, std::string name,
    fsmon::scalable::Consumer::BatchCallback callback);

/// Runs every layer probe and returns per-layer figures keyed by metric
/// name. Spans land in `tracer` under `parent`.
std::map<std::string, double> run_layer_probes(const ProbeInputs& in, Tracer& tracer,
                                               std::uint32_t parent);

}  // namespace perfbench
