#include "src/localfs/sim_dsi.hpp"

#include "src/common/string_util.hpp"

namespace fsmon::localfs {

using core::EventKind;
using core::StdEvent;

namespace {

StdEvent make_event(EventKind kind, std::string path, bool is_dir, common::TimePoint ts,
                    std::string source, std::uint64_t cookie = 0) {
  StdEvent event;
  event.kind = kind;
  event.path = std::move(path);
  event.is_dir = is_dir;
  event.timestamp = ts;
  event.source = std::move(source);
  event.cookie = cookie;
  return event;
}

}  // namespace

std::vector<StdEvent> standardize_inotify(const NativeEvent& event) {
  const bool is_dir = (event.flags & kInIsDir) != 0;
  const std::uint32_t kind_bits = event.flags & ~kInIsDir;
  std::vector<StdEvent> out;
  auto add = [&](EventKind kind) {
    out.push_back(make_event(kind, event.path, is_dir, event.timestamp, "inotify",
                             event.cookie));
  };
  if (kind_bits & kInCreate) add(EventKind::kCreate);
  if (kind_bits & kInModify) add(EventKind::kModify);
  if (kind_bits & kInAttrib) add(EventKind::kAttrib);
  if (kind_bits & kInCloseWrite) add(EventKind::kClose);
  if (kind_bits & kInOpen) add(EventKind::kOpen);
  if (kind_bits & kInDelete) add(EventKind::kDelete);
  if (kind_bits & kInMovedFrom) add(EventKind::kMovedFrom);
  if (kind_bits & kInMovedTo) add(EventKind::kMovedTo);
  return out;
}

std::vector<StdEvent> standardize_fsevents(const NativeEvent& event,
                                           std::uint64_t rename_cookie) {
  const bool is_dir = (event.flags & kFseIsDir) != 0;
  std::vector<StdEvent> out;
  // A single FSEvents record can carry several flags after coalescing;
  // emit one standardized event per flag in causal order.
  auto add = [&](EventKind kind, std::uint64_t cookie = 0) {
    out.push_back(make_event(kind, event.path, is_dir, event.timestamp, "fsevents", cookie));
  };
  if (event.flags & kFseCreated) add(EventKind::kCreate);
  if (event.flags & kFseModified) add(EventKind::kModify);
  if (event.flags & kFseInodeMetaMod) add(EventKind::kAttrib);
  if (event.flags & kFseRenamed) {
    // FSEvents reports renames as two per-path records; the caller pairs
    // adjacent ones with a shared cookie and alternating FROM/TO.
    add(rename_cookie % 2 == 1 ? EventKind::kMovedFrom : EventKind::kMovedTo,
        (rename_cookie + 1) / 2);
  }
  if (event.flags & kFseRemoved) add(EventKind::kDelete);
  return out;
}

std::vector<StdEvent> standardize_fsw(const NativeEvent& event,
                                      std::uint64_t rename_cookie) {
  std::vector<StdEvent> out;
  switch (event.flags) {
    case kFswCreated:
      out.push_back(make_event(EventKind::kCreate, event.path, false, event.timestamp,
                               "filesystemwatcher"));
      break;
    case kFswChanged:
      out.push_back(make_event(EventKind::kModify, event.path, false, event.timestamp,
                               "filesystemwatcher"));
      break;
    case kFswDeleted:
      out.push_back(make_event(EventKind::kDelete, event.path, false, event.timestamp,
                               "filesystemwatcher"));
      break;
    case kFswRenamed:
      // RenamedEventArgs carries both paths in one record.
      out.push_back(make_event(EventKind::kMovedFrom, event.path, false, event.timestamp,
                               "filesystemwatcher", rename_cookie));
      out.push_back(make_event(EventKind::kMovedTo, event.dest_path, false, event.timestamp,
                               "filesystemwatcher", rename_cookie));
      break;
    default: break;
  }
  return out;
}

SimDsiBase::SimDsiBase(MemFs& fs, common::Clock& clock, std::string name)
    : fs_(fs), clock_(clock), name_(std::move(name)) {}

SimDsiBase::~SimDsiBase() {
  if (listener_) fs_.remove_listener(*listener_);
}

common::Status SimDsiBase::start(EventCallback callback) {
  callback_ = std::move(callback);
  if (!listener_) {
    // Installed once for the DSI's lifetime; gate on running_ so stop()
    // works.
    listener_ = fs_.add_listener([this](const FsAction& action) {
      if (!running_.load(std::memory_order_acquire) || !callback_) return;
      for (auto& event : translate(action)) callback_(std::move(event));
    });
  }
  running_.store(true, std::memory_order_release);
  return common::Status::ok();
}

void SimDsiBase::stop() { running_.store(false, std::memory_order_release); }

std::vector<StdEvent> SimInotifyDsi::translate(const FsAction& action) {
  std::vector<StdEvent> out;
  for (const auto& native : emitter_.on_action(action, clock_.now())) {
    auto events = standardize_inotify(native);
    out.insert(out.end(), events.begin(), events.end());
  }
  for (auto& event : out) event.source = "sim-inotify";
  return out;
}

void SimKqueueDsi::diff_directory(const std::string& dir, std::vector<StdEvent>& out) {
  auto& snapshot = snapshots_[dir];
  std::map<std::string, bool> current;
  for (const auto& [name, is_dir] : fs_.list(dir)) current.emplace(name, is_dir);
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  for (const auto& [name, is_dir] : current) {
    if (snapshot.count(name) == 0) {
      out.push_back(make_event(EventKind::kCreate, prefix + name, is_dir, clock_.now(),
                               "sim-kqueue"));
    }
  }
  for (const auto& [name, is_dir] : snapshot) {
    if (current.count(name) == 0) {
      out.push_back(make_event(EventKind::kDelete, prefix + name, is_dir, clock_.now(),
                               "sim-kqueue"));
    }
  }
  snapshot = std::move(current);
}

std::vector<StdEvent> SimKqueueDsi::translate(const FsAction& action) {
  std::vector<StdEvent> out;
  for (const auto& native : emitter_.on_action(action, clock_.now())) {
    if (native.flags & kNoteRename) {
      const std::uint64_t cookie = next_cookie_++;
      const bool is_dir = fs_.is_directory(native.dest_path);
      out.push_back(make_event(EventKind::kMovedFrom, native.path, is_dir, native.timestamp,
                               "sim-kqueue", cookie));
      out.push_back(make_event(EventKind::kMovedTo, native.dest_path, is_dir,
                               native.timestamp, "sim-kqueue", cookie));
      // Refresh the affected directory snapshots without re-reporting.
      auto& src_snap = snapshots_[common::parent_path(native.path)];
      src_snap.erase(common::base_name(native.path));
      snapshots_[common::parent_path(native.dest_path)]
          .emplace(common::base_name(native.dest_path), is_dir);
      continue;
    }
    const bool subject_is_dir = fs_.is_directory(native.path);
    if (subject_is_dir && (native.flags & (kNoteWrite | kNoteLink))) {
      diff_directory(native.path, out);
      continue;
    }
    if (native.flags & kNoteWrite)
      out.push_back(make_event(EventKind::kModify, native.path, false, native.timestamp,
                               "sim-kqueue"));
    if (native.flags & kNoteAttrib)
      out.push_back(make_event(EventKind::kAttrib, native.path, subject_is_dir,
                               native.timestamp, "sim-kqueue"));
    if (native.flags & (kNoteClose | kNoteCloseWrite))
      out.push_back(make_event(EventKind::kClose, native.path, subject_is_dir,
                               native.timestamp, "sim-kqueue"));
    if (native.flags & kNoteOpen)
      out.push_back(make_event(EventKind::kOpen, native.path, subject_is_dir,
                               native.timestamp, "sim-kqueue"));
    // NOTE_DELETE on the node itself: the parent diff already reports the
    // deletion by name; nothing further to emit here.
  }
  return out;
}

std::vector<StdEvent> SimFsEventsDsi::translate(const FsAction& action) {
  std::vector<StdEvent> out;
  for (const auto& native : emitter_.on_action(action, clock_.now())) {
    std::uint64_t cookie = 0;
    if (native.flags & kFseRenamed) cookie = next_cookie_++;
    auto events = standardize_fsevents(native, cookie);
    for (auto& event : events) event.source = "sim-fsevents";
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

std::vector<StdEvent> SimFswDsi::translate(const FsAction& action) {
  // FileSystemWatcher buffers then delivers; the simulated DSI drains
  // synchronously, so loss happens only via emitter overflow (tested
  // directly on the emitter).
  if (!emitter_.on_action(action, clock_.now())) return {};
  std::vector<StdEvent> out;
  for (const auto& native : emitter_.drain()) {
    std::uint64_t cookie = 0;
    if (native.flags == kFswRenamed) cookie = next_cookie_++;
    auto events = standardize_fsw(native, cookie);
    for (auto& event : events) {
      // The drain is synchronous with the action, so the action's subject
      // type applies to every event produced by it.
      event.is_dir = action.is_dir;
      event.source = "sim-filesystemwatcher";
    }
    out.insert(out.end(), events.begin(), events.end());
  }
  return out;
}

void register_sim_dsis(core::DsiRegistry& registry, MemFs& fs, common::Clock& clock) {
  registry.register_dsi("sim-inotify", [&fs, &clock](const core::StorageDescriptor&) {
    return common::Result<std::unique_ptr<core::DsiBase>>(
        std::make_unique<SimInotifyDsi>(fs, clock));
  });
  registry.register_dsi("sim-kqueue", [&fs, &clock](const core::StorageDescriptor&) {
    return common::Result<std::unique_ptr<core::DsiBase>>(
        std::make_unique<SimKqueueDsi>(fs, clock));
  });
  registry.register_dsi("sim-fsevents", [&fs, &clock](const core::StorageDescriptor& d) {
    const auto window_us = d.params.get_int("fsevents.latency_us", 0);
    return common::Result<std::unique_ptr<core::DsiBase>>(std::make_unique<SimFsEventsDsi>(
        fs, clock, std::chrono::microseconds(window_us)));
  });
  registry.register_dsi("sim-filesystemwatcher",
                        [&fs, &clock](const core::StorageDescriptor& d) {
                          const auto buffer = d.params.get_int("fsw.buffer_bytes", 8192);
                          return common::Result<std::unique_ptr<core::DsiBase>>(
                              std::make_unique<SimFswDsi>(fs, clock,
                                                          static_cast<std::size_t>(buffer)));
                        });
}

}  // namespace fsmon::localfs
