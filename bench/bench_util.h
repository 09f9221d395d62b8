// Shared timing helpers for the paper-table benches.
//
// The paper's method (section 6.4): "Each data point is the average of 5
// runs of 10000 invocations of the given operation. Variance between runs
// was less than 8 percent." TimeOp reproduces that: R runs of N
// invocations, reporting the mean per-op microseconds and the max relative
// deviation between runs.

#ifndef SPRINGFS_BENCH_BENCH_UTIL_H_
#define SPRINGFS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace springfs::bench {

// CI smoke mode: SPRINGFS_BENCH_QUICK=1 shrinks iteration counts ~100x so
// the bench binaries finish in seconds while still exercising every code
// path and emitting the same BENCH_*.json shape.
inline bool QuickMode() {
  const char* env = std::getenv("SPRINGFS_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline uint64_t ScaledIters(uint64_t iterations) {
  return QuickMode() ? iterations / 100 + 1 : iterations;
}

// Which way a measurement improves; check_bench_regression.py reads it
// from the current run's JSON to decide what counts as a regression.
enum class Better { kLower, kHigher };

struct Measurement {
  double mean_us = 0;       // mean per-operation cost (or a Figure's value)
  double max_dev_pct = 0;   // max |run - mean| / mean across runs
  uint64_t iterations = 0;  // per run
  Better better = Better::kLower;
};

// A value that is not a per-op timing (a rate, speedup, reduction, ratio
// or count), carried in mean_us with the direction it improves in.
inline Measurement Figure(double value, Better better) {
  Measurement m;
  m.mean_us = value;
  m.iterations = 1;
  m.better = better;
  return m;
}

template <typename F>
Measurement TimeOp(F&& op, uint64_t iterations, int runs = 5) {
  std::vector<double> per_run_us;
  per_run_us.reserve(runs);
  // Warmup run (not measured): populate caches, fault pages.
  for (uint64_t i = 0; i < iterations / 10 + 1; ++i) {
    op();
  }
  for (int r = 0; r < runs; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iterations; ++i) {
      op();
    }
    auto end = std::chrono::steady_clock::now();
    double us = std::chrono::duration<double, std::micro>(end - start).count();
    per_run_us.push_back(us / static_cast<double>(iterations));
  }
  Measurement m;
  m.iterations = iterations;
  for (double us : per_run_us) {
    m.mean_us += us;
  }
  m.mean_us /= runs;
  for (double us : per_run_us) {
    m.max_dev_pct = std::max(m.max_dev_pct,
                             100.0 * std::abs(us - m.mean_us) / m.mean_us);
  }
  return m;
}

// Renders "123.4us (178%)" style cells normalized against a baseline.
inline std::string Cell(const Measurement& m, const Measurement& baseline) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%9.2f (%4.0f%%)", m.mean_us,
                100.0 * m.mean_us / baseline.mean_us);
  return buf;
}

inline std::string Cell(const Measurement& m) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%9.2f (100%%)", m.mean_us);
  return buf;
}

inline void PrintRule(int width = 86) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

// Machine-readable companion to the printed tables. Each bench groups its
// measurements into named configurations ("cached/sfs one domain", ...);
// BeginConfig snapshots the global metrics registry and EndConfig stores
// Delta(begin, now), so each configuration's JSON carries exactly the
// counters, per-layer latency histograms, and cross-domain call counts its
// own operations produced — including live provider counters, which a
// registry Reset() cannot zero.
class BenchReport {
 public:
  explicit BenchReport(std::string table) : table_(std::move(table)) {}

  void BeginConfig(const std::string& name) {
    configs_.push_back(Config{name, {}, {}});
    begin_ = metrics::Registry::Global().Collect();
  }

  void Add(const std::string& op, const Measurement& m) {
    configs_.back().measurements.emplace_back(op, m);
  }

  void EndConfig() {
    configs_.back().metrics =
        metrics::Delta(begin_, metrics::Registry::Global().Collect());
  }

  // Writes BENCH_<table>.json in the working directory; returns the path
  // (empty string on I/O failure).
  std::string Write() const {
    std::string path = "BENCH_" + table_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return "";
    }
    std::string json = ToJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return written == json.size() ? path : "";
  }

  std::string ToJson() const {
    std::string out = "{\n  \"table\": \"" + Escape(table_) + "\",\n";
    out += std::string("  \"quick\": ") + (QuickMode() ? "true" : "false") +
           ",\n  \"configs\": [";
    bool first_config = true;
    for (const Config& config : configs_) {
      out += first_config ? "\n" : ",\n";
      first_config = false;
      out += "    {\"name\": \"" + Escape(config.name) +
             "\", \"measurements\": {";
      bool first_m = true;
      for (const auto& [op, m] : config.measurements) {
        if (!first_m) {
          out += ", ";
        }
        first_m = false;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "{\"mean_us\": %.4f, \"max_dev_pct\": %.2f, "
                      "\"iterations\": %llu, \"better\": \"%s\"}",
                      m.mean_us, m.max_dev_pct,
                      static_cast<unsigned long long>(m.iterations),
                      m.better == Better::kHigher ? "higher" : "lower");
        out += "\"" + Escape(op) + "\": " + buf;
      }
      out += "},\n     \"metrics\": " + metrics::ToJson(config.metrics) + "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

 private:
  struct Config {
    std::string name;
    std::vector<std::pair<std::string, Measurement>> measurements;
    metrics::Registry::Snapshot metrics;
  };

  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out;
  }

  std::string table_;
  std::vector<Config> configs_;
  metrics::Registry::Snapshot begin_;
};

}  // namespace springfs::bench

#endif  // SPRINGFS_BENCH_BENCH_UTIL_H_
