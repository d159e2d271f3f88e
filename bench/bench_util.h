// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints a human-readable summary to stdout (the rows/series
// the paper reports) and writes full-resolution CSVs under ./bench_out/ so
// the figures can be re-plotted with any tool.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <type_traits>
#include <vector>

#include "util/csv.h"
#include "util/stats.h"

namespace qa::bench {

inline std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string out_path(const std::string& file) {
  return out_dir() + "/" + file;
}

// Fixed-width text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int width = 12)
      : headers_(std::move(headers)), width_(width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%*s", width_, h.c_str());
    std::printf("\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string fmt(double v, int digits = 2) {
  return format_number(v, digits);
}

// Counters (packet/drop/event counts) print through this overload so call
// sites stay free of value-changing integer->double conversions.
template <typename T>
  requires std::is_integral_v<T>
inline std::string fmt(T v, int digits = 0) {
  return format_number(static_cast<double>(v), digits);
}

inline std::string pct(double fraction, int digits = 2) {
  return format_number(fraction * 100.0, digits) + "%";
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Micro-benchmark timing loop. `op()` runs one iteration and returns a
// number. run() times batches of doubling size until one lasts at least
// kMinBatch and prints that batch's cost per iteration. Every returned
// value is added to a checksum that finish() prints, so the optimizer
// cannot drop the measured work.
class MicroBench {
 public:
  MicroBench() {
    std::printf("%-34s %12s %14s\n", "case", "iterations", "ns/iteration");
  }

  template <typename Op>
  void run(const std::string& name, Op&& op) {
    for (uint64_t iters = 1;; iters *= 2) {
      double sum = 0;
      const auto start = std::chrono::steady_clock::now();
      for (uint64_t i = 0; i < iters; ++i) sum += static_cast<double>(op());
      const std::chrono::duration<double, std::nano> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed >= kMinBatch) {
        checksum_ += sum;
        std::printf("%-34s %12llu %14.1f\n", name.c_str(),
                    static_cast<unsigned long long>(iters),
                    elapsed.count() / static_cast<double>(iters));
        return;
      }
    }
  }

  void finish() const { std::printf("checksum %.17g\n", checksum_); }

 private:
  static constexpr std::chrono::milliseconds kMinBatch{100};
  double checksum_ = 0;
};

// Writes a set of aligned time series as one CSV (shared time column from
// the first series; all series must be sampled on the same grid).
inline void write_series_csv(const std::string& file,
                             const std::vector<std::string>& names,
                             const std::vector<const TimeSeries*>& series) {
  std::vector<std::string> cols = {"t_sec"};
  cols.insert(cols.end(), names.begin(), names.end());
  CsvWriter csv(out_path(file), cols);
  if (series.empty() || series[0]->empty()) return;
  const size_t n = series[0]->size();
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row = {series[0]->points()[i].t.sec()};
    for (const TimeSeries* s : series) {
      row.push_back(i < s->size() ? s->points()[i].value : 0.0);
    }
    csv.row(row);
  }
  std::printf("  wrote %s (%zu rows)\n", out_path(file).c_str(), n);
}

}  // namespace qa::bench
