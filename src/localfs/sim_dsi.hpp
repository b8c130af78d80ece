// Simulated local-platform DSIs.
//
// Four DSIs standardize the four native dialects over a MemFs backend:
//   sim-inotify          — mask bits + rename cookies
//   sim-kqueue           — per-vnode flags; child create/delete recovered
//                          by diffing a directory snapshot (what real
//                          kqueue monitors like watchdog must do)
//   sim-fsevents         — per-path flag words, possibly coalesced;
//                          rename pairing reconstructed from adjacency
//   sim-filesystemwatcher — Created/Changed/Deleted/Renamed
//
// Each converts native events to StdEvent — the same translation code a
// real macOS/BSD/Windows backend would run — and feeds the FSMonitor
// callback synchronously from the MemFs mutation.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "src/common/clock.hpp"
#include "src/core/dsi.hpp"
#include "src/localfs/memfs.hpp"
#include "src/localfs/native.hpp"

namespace fsmon::localfs {

/// Standardizers (pure; unit-tested directly). Each maps one native
/// event to zero or more StdEvents (without ids / watch roots — the
/// resolution layer fills those in).
std::vector<core::StdEvent> standardize_inotify(const NativeEvent& event);
std::vector<core::StdEvent> standardize_fsevents(const NativeEvent& event,
                                                 std::uint64_t rename_cookie);
std::vector<core::StdEvent> standardize_fsw(const NativeEvent& event,
                                            std::uint64_t rename_cookie);

/// Common plumbing for the simulated DSIs.
class SimDsiBase : public core::DsiBase {
 public:
  SimDsiBase(MemFs& fs, common::Clock& clock, std::string name);
  /// Uninstalls the MemFs listener, which captures `this`.
  ~SimDsiBase() override;

  std::string name() const override { return name_; }
  common::Status start(EventCallback callback) override;
  void stop() override;
  bool running() const override { return running_.load(); }

 protected:
  /// Dialect-specific: turn one MemFs action into standardized events.
  virtual std::vector<core::StdEvent> translate(const FsAction& action) = 0;

  MemFs& fs_;
  common::Clock& clock_;

 private:
  std::string name_;
  std::atomic<bool> running_{false};
  std::optional<MemFs::ListenerId> listener_;
  EventCallback callback_;
};

class SimInotifyDsi final : public SimDsiBase {
 public:
  SimInotifyDsi(MemFs& fs, common::Clock& clock)
      : SimDsiBase(fs, clock, "sim-inotify") {}

 protected:
  std::vector<core::StdEvent> translate(const FsAction& action) override;

 private:
  InotifyEmitter emitter_;
};

class SimKqueueDsi final : public SimDsiBase {
 public:
  SimKqueueDsi(MemFs& fs, common::Clock& clock)
      : SimDsiBase(fs, clock, "sim-kqueue") {}

 protected:
  std::vector<core::StdEvent> translate(const FsAction& action) override;

 private:
  /// Diff the directory against its snapshot, emitting CREATE/DELETE for
  /// appeared/vanished children, then refresh the snapshot.
  void diff_directory(const std::string& dir, std::vector<core::StdEvent>& out);

  KqueueEmitter emitter_;
  std::map<std::string, std::map<std::string, bool>> snapshots_;  // dir -> name -> is_dir
  std::uint64_t next_cookie_ = 1;
};

class SimFsEventsDsi final : public SimDsiBase {
 public:
  SimFsEventsDsi(MemFs& fs, common::Clock& clock, common::Duration latency_window = {})
      : SimDsiBase(fs, clock, "sim-fsevents"), emitter_(latency_window) {}

  const FsEventsEmitter& emitter() const { return emitter_; }

 protected:
  std::vector<core::StdEvent> translate(const FsAction& action) override;

 private:
  FsEventsEmitter emitter_;
  std::uint64_t next_cookie_ = 1;
};

class SimFswDsi final : public SimDsiBase {
 public:
  SimFswDsi(MemFs& fs, common::Clock& clock, std::size_t buffer_bytes = 8192)
      : SimDsiBase(fs, clock, "sim-filesystemwatcher"), emitter_(buffer_bytes) {}

  std::uint64_t overflows() const { return emitter_.overflows(); }

 protected:
  std::vector<core::StdEvent> translate(const FsAction& action) override;

 private:
  FswEmitter emitter_;
  std::uint64_t next_cookie_ = 1;
};

/// Bind the four simulated DSIs to `fs` and register them with
/// `registry` under their scheme names.
void register_sim_dsis(core::DsiRegistry& registry, MemFs& fs, common::Clock& clock);

}  // namespace fsmon::localfs
