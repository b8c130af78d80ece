#!/usr/bin/env bash
# Tier-1 verification: build, run the full test suite, then prove the
# observability story end to end — the instrumented quickstart pipeline
# must emit a metrics snapshot with a nonzero publish count.
#
# --tsan: additionally build a ThreadSanitizer configuration in
# build-tsan and run the concurrency-heavy suites (message queue,
# threaded pipeline, transport layer) plus the ctest `concurrency` label
# (resolver pool, reorder buffer, single-flight, sharded cache) under it.
# The chaos suite (ctest label `chaos`) runs there too, once with its
# default seeds: its crash/restart schedules drive the fan-out hub's
# delivery workers.
#
# --asan: additionally build an AddressSanitizer configuration in
# build-asan and run the transport suites and the `concurrency` label
# under it. LeakSanitizer checks the same runs at exit.
#
# Both sanitizer passes also run the namespace-index suite (ctest label
# `nsindex`): the applier is queried from application threads while the
# consumer's delivery thread folds events into it, so it is
# concurrency-sensitive by construction.
#
# --chaos N: sweep the chaos verification suite (ctest label `chaos`)
# over fault-schedule seeds 1..N by exporting FSMON_CHAOS_SEED per run.
# Combined with --tsan/--asan the same sweep also runs in the sanitizer
# builds.
#
# --scenarios: additionally run the scenario smoke subset
# (tools/run_scenarios.sh --smoke): a federated three-backend topology
# under the chaos babysitter, the TCP carrier with frame drops, and the
# localfs dialect matrix. See docs/SCENARIOS.md.
set -euo pipefail

cd "$(dirname "$0")/.."

run_tsan=false
run_asan=false
run_scenarios=false
chaos_seeds=0
expect_seeds=false
for arg in "$@"; do
  if $expect_seeds; then
    chaos_seeds="$arg"
    expect_seeds=false
    continue
  fi
  case "$arg" in
    --tsan) run_tsan=true ;;
    --asan) run_asan=true ;;
    --scenarios) run_scenarios=true ;;
    --chaos) expect_seeds=true ;;
    --chaos=*) chaos_seeds="${arg#--chaos=}" ;;
    *) echo "usage: $0 [--tsan] [--asan] [--scenarios] [--chaos N]" >&2; exit 2 ;;
  esac
done
if $expect_seeds || ! [[ "$chaos_seeds" =~ ^[0-9]+$ ]]; then
  echo "usage: $0 [--tsan] [--asan] [--scenarios] [--chaos N]" >&2
  exit 2
fi

# Sweep the `chaos` ctest label across deterministic fault-schedule
# seeds in the given build directory.
chaos_sweep() {
  local builddir="$1"
  local seed
  for seed in $(seq 1 "$chaos_seeds"); do
    echo "chaos sweep [$builddir]: seed $seed/$chaos_seeds"
    (cd "$builddir" && FSMON_CHAOS_SEED="$seed" ctest -L chaos --output-on-failure)
  done
}

cmake -B build -S .
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

# Run the instrumented pipeline demo from a scratch directory and check
# the snapshot it writes.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
(cd "$workdir" && "$OLDPWD/build/examples/quickstart" pipeline)

snapshot="$workdir/quickstart_metrics.json"
if [[ ! -f "$snapshot" ]]; then
  echo "FAIL: quickstart pipeline did not write $snapshot" >&2
  exit 1
fi
if ! grep '"name":"collector.records_published"' "$snapshot" \
    | grep -qv '"value":0'; then
  echo "FAIL: collector.records_published is zero or missing in the snapshot:" >&2
  grep '"name":"collector.records_published"' "$snapshot" >&2 || true
  exit 1
fi
echo "OK: tier-1 tests passed and the metrics snapshot shows published records."

if (( chaos_seeds > 0 )); then
  chaos_sweep build
  echo "OK: chaos sweep over $chaos_seeds seeds reported exactly-once delivery."
fi

if $run_scenarios; then
  ./tools/run_scenarios.sh --smoke
  echo "OK: scenario smoke subset passed (federated mix, tcp drops, localfs dialects)."
fi

if $run_tsan; then
  echo "Building ThreadSanitizer configuration (build-tsan)..."
  cmake -B build-tsan -S . -DFSMON_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # Both test targets must build: ctest's discovery includes error out on
  # a configured-but-unbuilt gtest executable.
  cmake --build build-tsan -j "$(nproc)" \
    --target fsmon_tests fsmon_concurrency_tests fsmon_chaos_tests fsmon_nsindex_tests \
    fsmon_alloc_tests
  tsan_filter="PubSubTest.*:BusTest.*:TopicMatchTest.*:FrameTest.*:TcpTest.*"
  tsan_filter+=":PipelineTest.*:FaultToleranceTest.*"
  tsan_filter+=":ConsumerOverflowTest.*:CollectorCostsTest.*"
  tsan_filter+=":ProcessorTest.*:SimDriverTest.*"
  tsan_filter+=":ShardMapTest.*:VectorCursorTest.*:ShardRouterTest.*:ShardMergeTest.*"
  tsan_filter+=":FrameRefTest.*:SpscRingTest.*:ShmRingTest.*:*TransportTest.*"
  tsan_filter+=":ByteIdentityTest.*"
  tsan_filter+=":SubIndexTest.*:SubIndexPropertyTest.*:FlowControlTest.*"
  ./build-tsan/tests/fsmon_tests --gtest_filter="$tsan_filter"
  (cd build-tsan && ctest -L concurrency --output-on-failure)
  (cd build-tsan && ctest -L nsindex --output-on-failure)
  if (( chaos_seeds > 0 )); then
    chaos_sweep build-tsan
  else
    (cd build-tsan && ctest -L chaos --output-on-failure)
  fi
  echo "OK: ThreadSanitizer pass over the concurrency and chaos suites is clean."
fi

if $run_asan; then
  echo "Building AddressSanitizer configuration (build-asan)..."
  cmake -B build-asan -S . -DFSMON_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" \
    --target fsmon_tests fsmon_concurrency_tests fsmon_chaos_tests fsmon_nsindex_tests \
    fsmon_alloc_tests
  # The transport suites shuttle zero-copy frames across threads and
  # carriers, so run them under ASan as well as the concurrency label.
  # The merged replay decodes out of per-shard page buffers, so the shard
  # merge suite runs here too. ObserverTest restarts monitors over one
  # MemFs, whose listeners must not outlive the DSIs that installed them.
  # SimDriverTest runs the virtual-time simulator, whose self-scheduling
  # closures (arrivals, the Robinhood poller) must not own themselves.
  asan_filter="FrameRefTest.*:SpscRingTest.*:ShmRingTest.*:*TransportTest.*"
  asan_filter+=":ByteIdentityTest.*:TcpTest.*"
  asan_filter+=":SubIndexTest.*:SubIndexPropertyTest.*:FlowControlTest.*"
  asan_filter+=":ShardMergeTest.*:ObserverTest.*:SimDriverTest.*"
  ./build-asan/tests/fsmon_tests --gtest_filter="$asan_filter"
  (cd build-asan && ctest -L concurrency --output-on-failure)
  (cd build-asan && ctest -L nsindex --output-on-failure)
  if (( chaos_seeds > 0 )); then chaos_sweep build-asan; fi
  echo "OK: AddressSanitizer pass over the concurrency label is clean."
fi
