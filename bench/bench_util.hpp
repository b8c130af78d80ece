// Shared helpers for the table-reproduction benchmark binaries: aligned
// table printing and paper-vs-measured comparison rows.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/exporters.hpp"
#include "src/obs/metrics.hpp"

namespace fsmon::bench {

/// Fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
        widths[i] = std::max(widths[i], row[i].size());
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
      }
      std::printf("\n");
    };
    auto print_sep = [&] {
      std::printf("+");
      for (std::size_t w : widths) {
        for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    print_sep();
    print_row(headers_);
    print_sep();
    for (const auto& row : rows_) print_row(row);
    print_sep();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double value, int decimals = 0) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

/// "measured (paper P, dev%)" cell for paper-vs-measured comparisons.
inline std::string vs_paper(double measured, double paper, int decimals = 0) {
  char buf[96];
  const double dev = paper == 0 ? 0 : 100.0 * (measured - paper) / paper;
  std::snprintf(buf, sizeof(buf), "%.*f (paper %.*f, %+.1f%%)", decimals, measured,
                decimals, paper, dev);
  return buf;
}

/// Median of `values`: the middle one, or the mean of the two middle
/// ones for an even count; 0 when empty. Gates on a median of repeated
/// runs instead of one run, whose spread is run-to-run noise.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Write a final JSON metrics snapshot next to the bench binary and say
/// where it went (harness-wide convention: <bench>_metrics.json).
inline void dump_metrics(obs::MetricsRegistry& registry, const std::string& path) {
  if (auto s = obs::write_snapshot(registry, path, obs::ExportFormat::kJson); s.is_ok()) {
    std::printf("metrics snapshot: %s (%zu instruments)\n", path.c_str(),
                registry.instrument_count());
  } else {
    std::printf("metrics snapshot failed: %s\n", s.to_string().c_str());
  }
}

/// Cache hit ratio straight from fidcache.* registry counters.
inline double cache_hit_rate(const obs::MetricsSnapshot& snapshot) {
  const double hits = static_cast<double>(snapshot.counter_total("fidcache.hits"));
  const double lookups = hits + static_cast<double>(snapshot.counter_total("fidcache.misses"));
  return lookups == 0 ? 0.0 : hits / lookups;
}

}  // namespace fsmon::bench
