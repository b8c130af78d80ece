// Deterministic, seeded fault injection for crash-recovery testing.
//
// Pipeline stages name the places where a real deployment can fail —
// "collector.before_clear", "wal.torn_write", "transport.before_send" —
// and consult the process-wide FaultInjector at each one. A test arms the
// injector with a FaultPlan (a seed plus a list of rules); production code
// pays only a single relaxed atomic load per fault point while disarmed, and
// compiling with FSMON_DISABLE_FAULT_INJECTION removes even that.
//
// Firing is deterministic: each fault point gets its own xoshiro stream seeded
// from `plan.seed ^ hash(point)`, so a given (seed, workload) pair replays the
// same fault schedule on every run regardless of thread interleaving at other
// points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fsmon::obs {
class MetricsRegistry;
}

namespace fsmon::chaos {

enum class FaultAction : std::uint8_t {
  kNone = 0,  // no fault — proceed normally
  kCrash,     // fail-stop the enclosing stage (harness restarts it later)
  kDelay,     // sleep for `delay` before proceeding
  kFail,      // make the enclosing call report failure
  kDrop,      // silently drop the frame / message being handled
};

std::string_view to_string(FaultAction action);

/// What the injector decided for one evaluation of one fault point.
struct FaultOutcome {
  FaultAction action = FaultAction::kNone;
  std::chrono::nanoseconds delay{0};
  /// Action-specific argument (e.g. number of bytes to keep in a torn write).
  std::uint64_t arg = 0;

  explicit operator bool() const { return action != FaultAction::kNone; }
};

/// One rule in a plan. A rule matches a single fault point by exact name and
/// fires at most `max_fires` times, after skipping the first `after_hits`
/// evaluations of that point, each time with probability `probability` drawn
/// from the point's deterministic stream.
struct FaultRule {
  std::string point;
  FaultAction action = FaultAction::kFail;
  std::uint64_t after_hits = 0;
  double probability = 1.0;
  std::uint64_t max_fires = 1;  // 0 = unlimited
  std::chrono::nanoseconds delay{0};
  std::uint64_t arg = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;
};

/// Process-wide singleton. `armed()` is the fast path; everything else takes a
/// mutex and is only reachable from tests that armed a plan.
class FaultInjector {
 public:
  static FaultInjector& instance();

  static bool armed();

  /// Install `plan` and start evaluating faults. Counters reset. `metrics`
  /// may be null; when set, evaluations and injected faults are counted as
  /// `chaos.fault_evaluations` / `chaos.faults_injected`.
  void arm(FaultPlan plan, obs::MetricsRegistry* metrics = nullptr);

  /// Stop injecting. Hit/fire counters remain readable until the next arm().
  void disarm();

  /// Consult the plan at a named fault point. Returns kNone when disarmed or
  /// when no rule fires. Thread-safe.
  FaultOutcome evaluate(std::string_view point);

  /// Times `point` has been evaluated / has fired since the last arm().
  std::uint64_t hits(std::string_view point) const;
  std::uint64_t fires(std::string_view point) const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector() = default;
  struct Impl;
  Impl& impl() const;
};

#if defined(FSMON_DISABLE_FAULT_INJECTION)
inline FaultOutcome fault(std::string_view) { return {}; }
#else
/// The call sites' entry point: one relaxed load when disarmed.
inline FaultOutcome fault(std::string_view point) {
  if (!FaultInjector::armed()) return {};
  return FaultInjector::instance().evaluate(point);
}
#endif

/// RAII arm/disarm for tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan,
                           obs::MetricsRegistry* metrics = nullptr) {
    FaultInjector::instance().arm(std::move(plan), metrics);
  }
  ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace fsmon::chaos
