// Exactly-once delivery window, keyed by per-source changelog sequence.
//
// The Lustre processor stamps each event's cookie with its changelog
// record index, so (source, cookie) identifies a record across replays
// and aggregator restarts — event ids do NOT survive an aggregator
// crash (unacked records are re-published and renumbered), which is why
// consumers dedup on the changelog sequence instead. `watermark` covers
// a densely delivered prefix; `beyond` holds delivered sequences above
// it, because replayed and live frames interleave out of order during
// catch-up. Not thread-safe; callers serialize access.
//
// A hub consumer is handed only the frames its rules match, so it never
// sees the sequences of the frames in between; marking only what it was
// handed would leave its watermark behind the first such gap and grow
// `beyond` by one entry per delivery. Hub frames of a source arrive in
// sequence order, so each one settles the source through its last
// sequence (mark_through).
#pragma once

#include <cstdint>
#include <set>

namespace fsmon::scalable {

struct SourceDedupWindow {
  std::uint64_t watermark = 0;
  bool initialized = false;
  std::set<std::uint64_t> beyond;

  bool fresh(std::uint64_t seq) const {
    if (!initialized) return true;
    return seq > watermark && beyond.count(seq) == 0;
  }

  void mark(std::uint64_t seq) {
    if (!initialized) {
      // First record from this source: everything before it is outside
      // this consumer's lifetime.
      initialized = true;
      watermark = seq;
      return;
    }
    if (seq <= watermark) return;
    if (seq == watermark + 1) {
      watermark = seq;
      absorb(beyond.begin());
    } else {
      beyond.insert(seq);
    }
  }

  /// Settle every sequence up to `seq`, delivered or not. Only for a
  /// stream that arrives in sequence order, so a record this consumer
  /// was never handed can no longer come (the hub's live frames).
  void mark_through(std::uint64_t seq) {
    if (initialized && seq <= watermark) return;
    initialized = true;
    watermark = seq;
    absorb(beyond.erase(beyond.begin(), beyond.upper_bound(seq)));
  }

 private:
  /// Fold the entries from `it` on that continue the watermark into it.
  void absorb(std::set<std::uint64_t>::iterator it) {
    while (it != beyond.end() && *it == watermark + 1) {
      watermark = *it;
      it = beyond.erase(it);
    }
  }
};

}  // namespace fsmon::scalable
