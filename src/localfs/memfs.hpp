// Scripted in-memory local file system.
//
// Stands in for the macOS / BSD / Windows hosts we cannot run: workloads
// perform ordinary file operations against MemFs, and registered
// listeners observe the resulting actions. The native-event emitters in
// native.hpp translate those actions into each platform's raw event
// dialect (which the simulated DSIs then standardize) — exercising the
// same translation code paths a real kqueue/FSEvents/FileSystemWatcher
// backend would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.hpp"

namespace fsmon::localfs {

enum class FsOpKind : std::uint8_t {
  kCreate,
  kMkdir,
  kModify,
  kOpen,
  kClose,
  kDelete,
  kRmdir,
  kRename,
  kAttrib,
};

std::string_view to_string(FsOpKind kind);

/// One observed file-system action.
struct FsAction {
  FsOpKind kind = FsOpKind::kCreate;
  std::string path;       ///< Normalized absolute path.
  std::string dest_path;  ///< Rename destination (kRename only).
  bool is_dir = false;
  std::uint64_t sequence = 0;  ///< Monotonic per-MemFs action number.
};

class MemFs {
 public:
  using Listener = std::function<void(const FsAction&)>;
  /// Handle of an installed listener, for remove_listener().
  using ListenerId = std::uint64_t;

  MemFs();

  /// Listeners observe every successful mutation, in order.
  ListenerId add_listener(Listener listener);
  /// Uninstall a listener; an owner whose listener captures `this` must
  /// call this before it is destroyed. Unknown ids are ignored.
  void remove_listener(ListenerId id);

  common::Status create(const std::string& path);
  common::Status mkdir(const std::string& path);
  common::Status write(const std::string& path);
  common::Status open(const std::string& path);
  common::Status close(const std::string& path);
  common::Status remove(const std::string& path);  ///< unlink a file
  common::Status rmdir(const std::string& path);
  common::Status rename(const std::string& from, const std::string& to);
  common::Status chmod(const std::string& path, std::uint32_t mode);

  bool exists(const std::string& path) const;
  bool is_directory(const std::string& path) const;

  /// Direct children of a directory: (name, is_dir) pairs in name order.
  /// Used by the kqueue DSI's directory-diff rescan.
  std::vector<std::pair<std::string, bool>> list(const std::string& dir) const;
  std::size_t entry_count() const { return entries_.size(); }
  std::uint64_t actions() const { return next_sequence_; }

 private:
  struct Entry {
    bool is_dir = false;
    std::uint32_t mode = 0644;
  };

  common::Status check_parent(const std::string& path) const;
  void emit(FsOpKind kind, const std::string& path, bool is_dir,
            const std::string& dest = {});

  std::map<std::string, Entry> entries_;  // normalized path -> entry; "/" is implicit
  std::vector<std::pair<ListenerId, Listener>> listeners_;
  ListenerId next_listener_id_ = 0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace fsmon::localfs
