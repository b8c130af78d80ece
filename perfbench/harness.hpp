// Benchmark-side building blocks for the pipeline benchmark: clocks and
// statistics, the in-memory span tracer, the seeded op generator, and the
// correctness reference the delivered streams are checked against.
//
// Nothing here is part of the monitor; the benchmark only drives the
// monitor through its public API and measures around those calls.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <bitset>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.hpp"
#include "src/core/event.hpp"
#include "src/core/filter.hpp"
#include "src/lustre/filesystem.hpp"
#include "src/workloads/filebench.hpp"
#include "src/workloads/target.hpp"

namespace perfbench {

using fsmon::core::EventKind;
using fsmon::core::StdEvent;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of unsorted samples (copied, then sorted).
template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) +
         static_cast<double>(values[hi]) * frac;
}

template <typename T>
double median(std::vector<T> values) {
  return quantile(std::move(values), 0.5);
}

inline std::uint8_t kind_bit(EventKind kind) {
  return static_cast<std::uint8_t>(1u << static_cast<std::uint8_t>(kind));
}

// ---------------------------------------------------------------------------
// Span tracer

/// In-memory span recorder. Spans are recorded by the benchmark around
/// its own calls into the monitor's public functions, kept in memory, and
/// written out once at the end. Thread-safe (one mutex); a null Tracer*
/// records nothing, which is how untraced runs stay span-free.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::uint16_t name = 0;
    std::uint32_t trace = 0;  ///< Round number: spans of one round share it.
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t items = 0;  ///< Work units the span covered (events, records).
  };

  struct Stat {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  ///< total minus time covered by child spans.
    double ns_per_item() const {
      return items > 0 ? static_cast<double>(total_ns) / static_cast<double>(items) : 0;
    }
  };

  explicit Tracer(std::size_t reserve = 1 << 20) { spans_.reserve(reserve); }

  void set_trace(std::uint32_t trace) {
    std::lock_guard lock(mu_);
    trace_ = trace;
  }

  std::uint32_t begin(std::string_view name, std::uint32_t parent = kNoParent) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    Span span;
    span.name = intern_locked(name);
    span.trace = trace_;
    span.parent = parent;
    span.start_ns = t;
    spans_.push_back(span);
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  void end(std::uint32_t id, std::uint64_t items = 0) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mu_);
    spans_[id].end_ns = t;
    spans_[id].items = items;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Aggregate over every finished span called `name` (optionally only
  /// those of one trace).
  Stat stat(std::string_view name, std::int64_t trace = -1) const {
    std::lock_guard lock(mu_);
    Stat s;
    const auto it = ids_.find(std::string(name));
    if (it == ids_.end()) return s;
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != kNoParent && span.end_ns > 0)
        child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.name != it->second || span.end_ns == 0) continue;
      if (trace >= 0 && span.trace != static_cast<std::uint32_t>(trace)) continue;
      ++s.count;
      s.items += span.items;
      s.total_ns += span.end_ns - span.start_ns;
      s.self_ns += span.end_ns - span.start_ns - child_ns[i];
    }
    return s;
  }

  std::vector<std::string> names() const {
    std::lock_guard lock(mu_);
    return names_;
  }

  /// One JSON object per span: {"id","trace","parent","name","start_ns",
  /// "dur_ns","items"}; parent is -1 for root spans.
  bool write_jsonl(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"trace\":%u,\"parent\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"dur_ns\":%lld,\"items\":%llu}\n",
                   i, s.trace,
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.items));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::uint16_t intern_locked(std::string_view name) {
    auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    const auto id = static_cast<std::uint16_t>(names_.size() - 1);
    ids_.emplace(std::string(name), id);
    return id;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> ids_;
  std::uint32_t trace_ = 0;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             std::uint32_t parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }
  std::uint32_t id() const { return tracer_ ? id_ : Tracer::kNoParent; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
  std::uint64_t items_ = 0;
};

// ---------------------------------------------------------------------------
// Op generator

/// Project trees the generator writes into ("/p00" .. "/p99"). Project
/// subscribers watch the first kWatchedProjects; the last tree is seen
/// only by the catch-all subscriber.
inline constexpr int kProjects = 100;
inline constexpr int kWatchedProjects = 99;
inline constexpr int kMdts = 4;

inline std::string project_root(int project) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "/p%02d", project);
  return buf;
}

/// Project index of a delivered path ("/p07/bigfileset/d3/d1/x" -> 7), or -1.
inline int project_of(std::string_view path) {
  if (path.size() < 4 || path[0] != '/' || path[1] != 'p') return -1;
  if (path[2] < '0' || path[2] > '9' || path[3] < '0' || path[3] > '9') return -1;
  if (path.size() > 4 && path[4] != '/') return -1;
  return (path[2] - '0') * 10 + (path[3] - '0');
}

/// MDT index of an event source ("lustre:MDT3" -> 3), or -1.
inline int mdt_of(std::string_view source) {
  if (source.size() < 4 || source.substr(source.size() - 4, 3) != "MDT") return -1;
  const char c = source.back();
  return c >= '0' && c <= '9' ? c - '0' : -1;
}

/// Where one op landed and which events it must produce.
struct OpRecord {
  int mdt = 0;
  std::uint64_t index = 0;  ///< Changelog record index on `mdt`.
  std::uint8_t expect = 0;  ///< Bitmask of the event kinds it must yield.
  int project = 0;
};

/// FsTarget over the simulated Lustre file system that records every
/// op's changelog record (and its span), so the ops of the Filebench
/// fileset builder land in the correctness ledger like generated ops.
class RecordingTarget final : public fsmon::workloads::FsTarget {
 public:
  using Status = fsmon::common::Status;
  using OpResult = fsmon::common::Result<fsmon::lustre::OpResult>;

  RecordingTarget(fsmon::lustre::LustreFs& fs, int project, std::vector<OpRecord>& out,
                  Tracer* tracer, std::uint32_t parent)
      : fs_(fs), project_(project), out_(out), tracer_(tracer), parent_(parent) {}

  Status create(const std::string& path) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    Status s = record(fs_.create(path), kind_bit(EventKind::kCreate));
    if (s.is_ok()) files.push_back(path);
    return s;
  }
  Status mkdir(const std::string& path) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    Status s = record(fs_.mkdir(path), kind_bit(EventKind::kCreate));
    if (s.is_ok()) dirs.push_back(path);
    return s;
  }
  Status write(const std::string& path, std::uint64_t bytes) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    return record(fs_.modify(path, bytes), kind_bit(EventKind::kModify));
  }
  Status close(const std::string& path) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    return record(fs_.close(path), kind_bit(EventKind::kClose));
  }
  Status rename(const std::string& from, const std::string& to) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    return record(fs_.rename(from, to),
                  kind_bit(EventKind::kMovedFrom) | kind_bit(EventKind::kMovedTo));
  }
  Status remove(const std::string& path) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    return record(fs_.unlink(path), kind_bit(EventKind::kDelete));
  }
  Status rmdir(const std::string& path) override {
    ScopedSpan span(tracer_, "lustre.op", parent_);
    return record(fs_.rmdir(path), kind_bit(EventKind::kDelete));
  }

  std::vector<std::string> files;  ///< Created files, in order.
  std::vector<std::string> dirs;   ///< Created directories, in order.
  std::uint64_t failures = 0;

 private:
  Status record(const OpResult& r, unsigned expect) {
    if (!r) {
      ++failures;
      return r.status();
    }
    out_.push_back({static_cast<int>(r->mdt_index), r->record_index,
                    static_cast<std::uint8_t>(expect), project_});
    return Status::ok();
  }

  fsmon::lustre::LustreFs& fs_;
  int project_;
  std::vector<OpRecord>& out_;
  Tracer* tracer_;
  std::uint32_t parent_;
};

/// Seeded metadata traffic over the project trees.
///
/// Each project tree is a Filebench fileset with the paper's Section V-B
/// shape (fsmon::workloads::run_filebench_create: mean directory width
/// 20, mean directory depth 3.6, gamma file sizes), built during set-up.
///
/// The op stream then runs the flowop loop of Filebench's `fileserver`
/// personality against one uniformly chosen project per iteration:
/// createfile + writewholefile + closefile, openfile + appendfilerand +
/// closefile, openfile + readwholefile + closefile, deletefile, statfile.
/// Only the ops that write a changelog record are issued: create,
/// modify, close, modify, close, unlink (opens, reads, the read-only
/// close and the stat record nothing). fileserver has no rename; every
/// loop adds one rename of a random file into a random leaf directory of
/// the same project, so renames (an assumption, with no published mix
/// behind them) are 1 op in 7. Creates and deletes balance, so each
/// project keeps its fileset's file count.
class OpStream {
 public:
  static constexpr int kLoopSteps = 7;

  OpStream(std::uint64_t seed, std::uint64_t files_per_project)
      : rng_(seed * 0x9E3779B97F4A7C15ull + 17),
        seed_(seed),
        files_per_project_(std::max<std::uint64_t>(1, files_per_project)),
        projects_(kProjects) {}

  /// Set-up of project `p`: mkdir of its root, then its Filebench fileset.
  /// Appends every op's record to `out`; false if any op failed.
  bool build_project(fsmon::lustre::LustreFs& fs, int p, std::vector<OpRecord>& out,
                     Tracer* tracer = nullptr, std::uint32_t parent = Tracer::kNoParent) {
    RecordingTarget target(fs, p, out, tracer, parent);
    if (!target.mkdir(project_root(p)).is_ok()) return false;
    fsmon::workloads::FilebenchOptions options;  // the paper's fileset shape
    options.files = files_per_project_;
    options.seed = seed_ * 1000003ull + static_cast<std::uint64_t>(p) + 1;
    const auto report = fsmon::workloads::run_filebench_create(target, project_root(p), options);
    directories_ += report.directories;
    depth_sum_ += report.mean_depth * static_cast<double>(report.footprint.creates);
    files_built_ += report.footprint.creates;

    // Leaves: directories no other directory sits under.
    std::unordered_set<std::string_view> parents;
    for (const auto& dir : target.dirs) parents.insert(std::string_view(dir).substr(0, dir.rfind('/')));
    Project& proj = projects_[static_cast<std::size_t>(p)];
    for (const auto& dir : target.dirs)
      if (!parents.contains(dir)) proj.leaves.push_back(dir);
    if (proj.leaves.empty()) proj.leaves.push_back(project_root(p));
    proj.files = std::move(target.files);
    return target.failures == 0 && !proj.files.empty();
  }

  /// Issue the next op of the loop; false if it failed.
  bool apply_next(fsmon::lustre::LustreFs& fs, OpRecord& out) {
    const int step = step_;
    step_ = (step_ + 1) % kLoopSteps;
    if (step == 0) project_ = static_cast<int>(rng_.next_below(kProjects));
    Project& proj = projects_[static_cast<std::size_t>(project_)];
    if (proj.files.empty()) return false;
    std::vector<OpRecord> records;
    RecordingTarget target(fs, project_, records, nullptr, Tracer::kNoParent);
    fsmon::common::Status s;
    switch (step) {
      case 0:  // createfile
        current_ = new_name(proj);
        s = target.create(current_);
        if (s.is_ok()) proj.files.push_back(current_);
        break;
      case 1:  // writewholefile
        s = target.write(current_, file_size());
        break;
      case 2:  // closefile
        s = target.close(current_);
        break;
      case 3:  // openfile + appendfilerand
        current_ = proj.files[rng_.next_below(proj.files.size())];
        s = target.write(current_, file_size());
        break;
      case 4:  // closefile
        s = target.close(current_);
        break;
      case 5: {  // deletefile
        const std::size_t slot = rng_.next_below(proj.files.size());
        s = target.remove(proj.files[slot]);
        proj.files[slot] = std::move(proj.files.back());
        proj.files.pop_back();
        break;
      }
      default: {  // rename into a random leaf of the project
        const std::size_t slot = rng_.next_below(proj.files.size());
        std::string to = new_name(proj);
        s = target.rename(proj.files[slot], to);
        proj.files[slot] = std::move(to);
        break;
      }
    }
    if (!s.is_ok() || records.size() != 1) return false;
    out = records.front();
    return true;
  }

  std::uint64_t directories() const { return directories_; }
  std::uint64_t files_built() const { return files_built_; }
  /// Mean '/'-count of the fileset files' paths, as Filebench reports it.
  double mean_file_depth() const {
    return files_built_ > 0 ? depth_sum_ / static_cast<double>(files_built_) : 0;
  }

 private:
  struct Project {
    std::vector<std::string> leaves;
    std::vector<std::string> files;  ///< Live files.
  };

  std::string new_name(const Project& proj) {
    const std::string& leaf = proj.leaves[rng_.next_below(proj.leaves.size())];
    return leaf + "/w" + std::to_string(next_file_++);
  }

  /// Filebench's file-size model: gamma, shape 1.5, mean 16 KiB.
  std::uint64_t file_size() {
    return static_cast<std::uint64_t>(std::max(1.0, rng_.next_gamma(1.5, 16384 / 1.5)));
  }

  fsmon::common::Rng rng_;
  std::uint64_t seed_;
  std::uint64_t files_per_project_;
  std::vector<Project> projects_;
  int step_ = 0;
  int project_ = 0;
  std::string current_;
  std::uint64_t next_file_ = 0;
  std::uint64_t directories_ = 0;
  std::uint64_t files_built_ = 0;
  double depth_sum_ = 0;
};
// ---------------------------------------------------------------------------
// Correctness reference

/// Per-(MDT, record index) ledger of what the generator wrote and what
/// the catch-all subscriber received. Slot arrays are preallocated so the
/// generator and the delivery callback write disjoint memory without
/// locks; they are only read after both have stopped.
struct StreamLedger {
  struct Gen {
    std::int64_t due_ns = 0;  ///< 0 = set-up op (no latency sample).
    std::uint8_t expect = 0;
  };
  struct Recv {
    std::int64_t recv_ns = 0;  ///< First arrival at the catch-all callback.
    std::uint8_t got = 0;
    std::uint8_t dup = 0;
  };

  explicit StreamLedger(std::size_t capacity_per_mdt)
      : gen(kMdts, std::vector<Gen>(capacity_per_mdt + 1)),
        recv(kMdts, std::vector<Recv>(capacity_per_mdt + 1)) {}

  std::size_t capacity() const { return gen[0].size() - 1; }

  /// Generator side: record one op's expected events and due time.
  bool expect(const OpRecord& op, std::int64_t due_ns) {
    if (op.mdt < 0 || op.mdt >= kMdts || op.index == 0 || op.index > capacity()) return false;
    auto& g = gen[static_cast<std::size_t>(op.mdt)][op.index];
    g.expect = op.expect;
    g.due_ns = due_ns;
    expected_events += static_cast<std::uint64_t>(std::popcount(op.expect));
    ops += 1;
    return true;
  }

  /// Delivery side (catch-all callback thread): mark one event received.
  void receive(int mdt, std::uint64_t index, EventKind kind, std::int64_t t) {
    if (mdt < 0 || mdt >= kMdts || index == 0 || index > capacity()) {
      ++stray;
      return;
    }
    auto& r = recv[static_cast<std::size_t>(mdt)][index];
    const std::uint8_t bit = kind_bit(kind);
    if ((r.got & bit) != 0) {
      if (r.dup < 255) ++r.dup;
    } else {
      r.got |= bit;
    }
    if (r.recv_ns == 0) r.recv_ns = t;
  }

  /// Missing plus duplicated (or unexpected) events at the catch-all
  /// subscriber, against the generator's record.
  std::uint64_t failures() const {
    std::uint64_t failed = stray;
    for (int m = 0; m < kMdts; ++m) {
      for (std::size_t i = 1; i < gen[m].size(); ++i) {
        const Gen& g = gen[m][i];
        const Recv& r = recv[m][i];
        failed += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(g.expect & ~r.got)));
        failed += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(r.got & ~g.expect)));
        failed += r.dup;
      }
    }
    return failed;
  }

  /// Latency samples: first arrival minus due time, for timed ops.
  std::vector<std::int64_t> latencies_ns(std::int64_t release_ns = 0) const {
    std::vector<std::int64_t> out;
    for (int m = 0; m < kMdts; ++m) {
      for (std::size_t i = 1; i < gen[m].size(); ++i) {
        const Gen& g = gen[m][i];
        const Recv& r = recv[m][i];
        if (g.expect == 0 || r.recv_ns == 0) continue;
        const std::int64_t due = release_ns > 0 ? release_ns : g.due_ns;
        if (due == 0) continue;
        out.push_back(r.recv_ns - due);
      }
    }
    return out;
  }

  /// Open-loop latency samples grouped by due time: window w holds the
  /// ops due in [t0 + w*width, t0 + (w+1)*width).
  std::vector<std::vector<std::int64_t>> latency_windows(std::int64_t t0,
                                                         std::int64_t width) const {
    std::vector<std::vector<std::int64_t>> windows;
    for (int m = 0; m < kMdts; ++m) {
      for (std::size_t i = 1; i < gen[m].size(); ++i) {
        const Gen& g = gen[m][i];
        const Recv& r = recv[m][i];
        if (g.due_ns < t0 || r.recv_ns == 0) continue;
        const auto w = static_cast<std::size_t>((g.due_ns - t0) / width);
        if (windows.size() <= w) windows.resize(w + 1);
        windows[w].push_back(r.recv_ns - g.due_ns);
      }
    }
    return windows;
  }

  std::vector<std::vector<Gen>> gen;
  std::vector<std::vector<Recv>> recv;
  std::uint64_t expected_events = 0;
  std::uint64_t ops = 0;
  std::uint64_t stray = 0;  ///< Deliveries outside any slot (callback thread).
};

/// Packed identity of one delivered event: MDT, kind, record index.
inline std::uint64_t event_key(int mdt, EventKind kind, std::uint64_t index) {
  return (static_cast<std::uint64_t>(mdt & 0xFF) << 56) |
         (static_cast<std::uint64_t>(kind) << 48) | (index & 0xFFFFFFFFFFFFull);
}

struct CheckResult {
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;  ///< Missing plus duplicated or unexpected.
};

/// Multiset difference between a reference and a received key list
/// (both consumed): every key missing from `received` and every surplus
/// key in it counts once.
inline std::uint64_t key_diff(std::vector<std::uint64_t>& reference,
                              std::vector<std::uint64_t>& received) {
  std::sort(reference.begin(), reference.end());
  std::sort(received.begin(), received.end());
  std::uint64_t failed = 0;
  std::size_t i = 0, j = 0;
  while (i < reference.size() || j < received.size()) {
    if (j == received.size() || (i < reference.size() && reference[i] < received[j])) {
      ++failed, ++i;
    } else if (i == reference.size() || received[j] < reference[i]) {
      ++failed, ++j;
    } else {
      ++i, ++j;
    }
  }
  return failed;
}

/// Project-subscriber reference: each project subscriber must receive
/// exactly the events of `stream` that core::matches_any selects with its
/// rule set. The rule sets carry only a root (no name glob, no kind
/// restriction), so the verdict depends on the event path alone and is
/// memoized per distinct path; the evaluation is split over `threads`.
inline CheckResult check_projects(const std::vector<StdEvent>& stream,
                                  const std::vector<std::vector<fsmon::core::FilterRule>>& rules,
                                  std::vector<std::vector<std::uint64_t>>& received,
                                  unsigned threads = 4) {
  using Mask = std::bitset<128>;
  std::vector<Mask> verdict(stream.size());
  auto worker = [&](std::size_t begin, std::size_t end) {
    std::unordered_map<std::string, Mask> memo;
    for (std::size_t i = begin; i < end; ++i) {
      const StdEvent& event = stream[i];
      auto [it, fresh] = memo.try_emplace(event.path);
      if (fresh) {
        for (std::size_t p = 0; p < rules.size(); ++p)
          if (fsmon::core::matches_any(rules[p], event)) it->second.set(p);
      }
      verdict[i] = it->second;
    }
  };
  threads = std::max(1u, threads);
  std::vector<std::thread> pool;
  const std::size_t chunk = (stream.size() + threads - 1) / threads;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t begin = std::min(stream.size(), t * chunk);
    const std::size_t end = std::min(stream.size(), begin + chunk);
    pool.emplace_back(worker, begin, end);
  }
  for (auto& t : pool) t.join();

  std::vector<std::vector<std::uint64_t>> reference(rules.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (verdict[i].none()) continue;
    const StdEvent& e = stream[i];
    const std::uint64_t key = event_key(mdt_of(e.source), e.kind, e.cookie);
    for (std::size_t p = 0; p < rules.size(); ++p)
      if (verdict[i].test(p)) reference[p].push_back(key);
  }
  CheckResult result;
  for (std::size_t p = 0; p < rules.size(); ++p) {
    result.expected += reference[p].size();
    result.failed += key_diff(reference[p], received[p]);
  }
  return result;
}

/// Checks one full replay pass of the merged store: per MDT, record
/// indices must run 1, 2, 3, ... with no gap or repeat (a rename's
/// MOVED_FROM/MOVED_TO pair shares one index), and each MDT must reach at
/// least the count persisted when the pass started.
class ReplayPassCheck {
 public:
  void start(const std::vector<std::uint64_t>& floor_events) {
    floor_ = floor_events;
    last_.assign(kMdts, 0);
    last_kind_.assign(kMdts, EventKind::kCreate);
    seen_.assign(kMdts, 0);
  }

  void on_event(const StdEvent& e) {
    const int m = mdt_of(e.source);
    if (m < 0 || m >= kMdts) {
      ++errors_;
      return;
    }
    const auto mi = static_cast<std::size_t>(m);
    const bool next = e.cookie == last_[mi] + 1;
    const bool pair = e.cookie == last_[mi] && last_kind_[mi] == EventKind::kMovedFrom &&
                      e.kind == EventKind::kMovedTo;
    if (!next && !pair) ++errors_;
    last_[mi] = std::max(last_[mi], e.cookie);
    last_kind_[mi] = e.kind;
    ++seen_[mi];
  }

  /// Close the pass; returns the events the pass owed (its floor).
  std::uint64_t finish() {
    std::uint64_t owed = 0;
    for (std::size_t m = 0; m < floor_.size() && m < seen_.size(); ++m) {
      owed += floor_[m];
      if (seen_[m] < floor_[m]) errors_ += floor_[m] - seen_[m];
    }
    return owed;
  }

  std::uint64_t errors() const { return errors_; }

 private:
  std::vector<std::uint64_t> floor_;
  std::vector<std::uint64_t> last_;
  std::vector<EventKind> last_kind_;
  std::vector<std::uint64_t> seen_;
  std::uint64_t errors_ = 0;
};

}  // namespace perfbench
