#include "src/localfs/memfs.hpp"

#include "src/common/string_util.hpp"

namespace fsmon::localfs {

using common::ErrorCode;
using common::Status;

std::string_view to_string(FsOpKind kind) {
  switch (kind) {
    case FsOpKind::kCreate: return "create";
    case FsOpKind::kMkdir: return "mkdir";
    case FsOpKind::kModify: return "modify";
    case FsOpKind::kOpen: return "open";
    case FsOpKind::kClose: return "close";
    case FsOpKind::kDelete: return "delete";
    case FsOpKind::kRmdir: return "rmdir";
    case FsOpKind::kRename: return "rename";
    case FsOpKind::kAttrib: return "attrib";
  }
  return "?";
}

MemFs::MemFs() = default;

MemFs::ListenerId MemFs::add_listener(Listener listener) {
  listeners_.emplace_back(next_listener_id_, std::move(listener));
  return next_listener_id_++;
}

void MemFs::remove_listener(ListenerId id) {
  std::erase_if(listeners_, [id](const auto& entry) { return entry.first == id; });
}

void MemFs::emit(FsOpKind kind, const std::string& path, bool is_dir,
                 const std::string& dest) {
  FsAction action;
  action.kind = kind;
  action.path = path;
  action.dest_path = dest;
  action.is_dir = is_dir;
  action.sequence = next_sequence_++;
  for (const auto& [id, listener] : listeners_) listener(action);
}

Status MemFs::check_parent(const std::string& path) const {
  const std::string parent = common::parent_path(path);
  if (parent == "/") return Status::ok();
  auto it = entries_.find(parent);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, "parent: " + parent);
  if (!it->second.is_dir) return Status(ErrorCode::kNotADirectory, parent);
  return Status::ok();
}

Status MemFs::create(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (norm == "/") return Status(ErrorCode::kInvalid, "create on root");
  if (entries_.count(norm) != 0) return Status(ErrorCode::kAlreadyExists, norm);
  if (auto s = check_parent(norm); !s.is_ok()) return s;
  entries_.emplace(norm, Entry{false, 0644});
  emit(FsOpKind::kCreate, norm, false);
  return Status::ok();
}

Status MemFs::mkdir(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  if (norm == "/") return Status(ErrorCode::kAlreadyExists, norm);
  if (entries_.count(norm) != 0) return Status(ErrorCode::kAlreadyExists, norm);
  if (auto s = check_parent(norm); !s.is_ok()) return s;
  entries_.emplace(norm, Entry{true, 0755});
  emit(FsOpKind::kMkdir, norm, true);
  return Status::ok();
}

Status MemFs::write(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  if (it->second.is_dir) return Status(ErrorCode::kIsADirectory, norm);
  emit(FsOpKind::kModify, norm, false);
  return Status::ok();
}

Status MemFs::open(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  emit(FsOpKind::kOpen, norm, it->second.is_dir);
  return Status::ok();
}

Status MemFs::close(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  emit(FsOpKind::kClose, norm, it->second.is_dir);
  return Status::ok();
}

Status MemFs::remove(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  if (it->second.is_dir) return Status(ErrorCode::kIsADirectory, norm);
  entries_.erase(it);
  emit(FsOpKind::kDelete, norm, false);
  return Status::ok();
}

Status MemFs::rmdir(const std::string& path) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  if (!it->second.is_dir) return Status(ErrorCode::kNotADirectory, norm);
  // Non-empty check: any entry strictly under norm?
  auto next = entries_.upper_bound(norm);
  if (next != entries_.end() && common::is_under(next->first, norm))
    return Status(ErrorCode::kNotEmpty, norm);
  entries_.erase(it);
  emit(FsOpKind::kRmdir, norm, true);
  return Status::ok();
}

Status MemFs::rename(const std::string& from, const std::string& to) {
  const std::string src = common::normalize_path(from);
  const std::string dst = common::normalize_path(to);
  auto it = entries_.find(src);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, src);
  if (entries_.count(dst) != 0) return Status(ErrorCode::kAlreadyExists, dst);
  if (auto s = check_parent(dst); !s.is_ok()) return s;
  const bool is_dir = it->second.is_dir;
  Entry entry = it->second;
  entries_.erase(it);
  entries_.emplace(dst, entry);
  if (is_dir) {
    // Move all children under the new prefix.
    std::map<std::string, Entry> moved;
    for (auto child = entries_.upper_bound(src); child != entries_.end();) {
      if (!common::is_under(child->first, src)) break;
      moved.emplace(dst + child->first.substr(src.size()), child->second);
      child = entries_.erase(child);
    }
    entries_.merge(moved);
  }
  emit(FsOpKind::kRename, src, is_dir, dst);
  return Status::ok();
}

Status MemFs::chmod(const std::string& path, std::uint32_t mode) {
  const std::string norm = common::normalize_path(path);
  auto it = entries_.find(norm);
  if (it == entries_.end()) return Status(ErrorCode::kNotFound, norm);
  it->second.mode = mode;
  emit(FsOpKind::kAttrib, norm, it->second.is_dir);
  return Status::ok();
}

bool MemFs::exists(const std::string& path) const {
  const std::string norm = common::normalize_path(path);
  return norm == "/" || entries_.count(norm) != 0;
}

std::vector<std::pair<std::string, bool>> MemFs::list(const std::string& dir) const {
  const std::string norm = common::normalize_path(dir);
  std::vector<std::pair<std::string, bool>> out;
  const std::string prefix = norm == "/" ? "/" : norm + "/";
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (!common::starts_with(it->first, prefix)) break;
    const std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') != std::string::npos) continue;  // deeper than a child
    out.emplace_back(rest, it->second.is_dir);
  }
  return out;
}

bool MemFs::is_directory(const std::string& path) const {
  const std::string norm = common::normalize_path(path);
  if (norm == "/") return true;
  auto it = entries_.find(norm);
  return it != entries_.end() && it->second.is_dir;
}

}  // namespace fsmon::localfs
