/// \file bench_common.h
/// \brief Shared helpers for the paper-reproduction bench harnesses.
///
/// All benches are deterministic (fixed seeds) and scale-aware: the paper
/// ran on 868M-point data on a GTX 1060; this substrate is a single-box
/// software simulation, so default sizes are scaled down while keeping
/// every *relationship* the figures show (who wins, crossover locations,
/// breakdown shapes). Set RJ_BENCH_SCALE=<float> to grow/shrink inputs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
#include "data/twitter_generator.h"
#include "gpu/device.h"
#include "join/join_common.h"

namespace rj::bench {

/// Global input-size multiplier from the environment (default 1.0).
inline double Scale() {
  const char* env = std::getenv("RJ_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double s = std::atof(env);
  return s > 0.0 ? s : 1.0;
}

inline std::size_t Scaled(std::size_t n) {
  return static_cast<std::size_t>(static_cast<double>(n) * Scale());
}

/// Prints the standard bench header with the scale factor.
inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s   (RJ_BENCH_SCALE=%.2f)\n", paper_ref, Scale());
  std::printf("==============================================================\n");
}

/// Device mirroring the paper's configuration (§7.1): memory capped, FBO
/// at most 8192² — scaled down so the out-of-core regime is reachable at
/// bench input sizes.
inline gpu::DeviceOptions PaperDeviceOptions(
    std::size_t memory_budget_bytes = 16ull << 20,
    std::int32_t max_fbo_dim = 4096) {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = memory_budget_bytes;
  options.max_fbo_dim = max_fbo_dim;
  return options;
}

/// Wall-times a callable once and returns seconds.
template <typename Fn>
double TimeOnce(const Fn& fn) {
  Timer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Machine-readable bench output: rows of key→value fields written as
/// `BENCH_<name>.json` next to the human-readable tables, so perf
/// trajectories (queries/sec over PRs, figure reproductions over scales)
/// can be tracked by tooling instead of scraped from stdout.
///
///   BenchJson json("fig8_scaling_points_inmem");
///   json.Row().Field("points", n).Field("bounded_ms", ms);
///   json.Write();   // or rely on the destructor
///
/// Output directory: $RJ_BENCH_JSON_DIR (default: current directory).
/// Set RJ_BENCH_JSON=0 to disable emission entirely.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}
  ~BenchJson() { Write(); }

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// Starts a new row; Field() calls apply to the most recent row.
  BenchJson& Row() {
    rows_.emplace_back();
    return *this;
  }

  BenchJson& Field(const char* key, double value) {
    char buf[64];
    // %.17g round-trips doubles; integral values print without exponent.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return RawField(key, buf);
  }
  BenchJson& Field(const char* key, std::size_t value) {
    return RawField(key, std::to_string(value));
  }
  BenchJson& Field(const char* key, int value) {
    return RawField(key, std::to_string(value));
  }
  BenchJson& Field(const char* key, const std::string& value) {
    return RawField(key, "\"" + Escaped(value) + "\"");
  }

  /// Writes BENCH_<name>.json (idempotent; later calls rewrite the file).
  void Write() {
    const char* toggle = std::getenv("RJ_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return;
    const char* dir = std::getenv("RJ_BENCH_JSON_DIR");
    const std::string path =
        (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "") +
        "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // benches never fail on reporting
    std::fprintf(f, "{\"bench\":\"%s\",\"scale\":%.4f,\"rows\":[",
                 Escaped(name_).c_str(), Scale());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s{", r == 0 ? "" : ",");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\":%s", i == 0 ? "" : ",",
                     Escaped(rows_[r][i].first).c_str(),
                     rows_[r][i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  BenchJson& RawField(const char* key, std::string rendered) {
    if (rows_.empty()) rows_.emplace_back();
    rows_.back().emplace_back(key, std::move(rendered));
    return *this;
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Formats seconds as "123.4 ms".
inline std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", seconds * 1e3);
  return buf;
}

/// Per-polygon relative errors (% of exact; polygons with exact==0 skipped).
inline std::vector<double> PercentErrors(const std::vector<double>& approx,
                                         const std::vector<double>& exact) {
  std::vector<double> errors;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    if (exact[i] <= 0.0) continue;
    errors.push_back(100.0 * std::fabs(approx[i] - exact[i]) / exact[i]);
  }
  return errors;
}

/// Box-plot statistics of a sample (median, quartiles, 1.5-IQR whiskers),
/// matching the box plots of Figures 12(b) and 14.
struct BoxStats {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0;
  double whisker_lo = 0, whisker_hi = 0;
};

inline BoxStats ComputeBoxStats(std::vector<double> sample) {
  BoxStats stats;
  if (sample.empty()) return stats;
  std::sort(sample.begin(), sample.end());
  auto quantile = [&sample](double q) {
    const double idx = q * (sample.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - lo;
    if (lo + 1 >= sample.size()) return sample.back();
    return sample[lo] * (1 - frac) + sample[lo + 1] * frac;
  };
  stats.min = sample.front();
  stats.q1 = quantile(0.25);
  stats.median = quantile(0.5);
  stats.q3 = quantile(0.75);
  stats.max = sample.back();
  const double iqr = stats.q3 - stats.q1;
  stats.whisker_lo = stats.q1;
  stats.whisker_hi = stats.q3;
  for (const double v : sample) {
    if (v >= stats.q1 - 1.5 * iqr) {
      stats.whisker_lo = std::min(stats.whisker_lo, v);
      break;
    }
  }
  for (auto it = sample.rbegin(); it != sample.rend(); ++it) {
    if (*it <= stats.q3 + 1.5 * iqr) {
      stats.whisker_hi = std::max(stats.whisker_hi, *it);
      break;
    }
  }
  return stats;
}

}  // namespace rj::bench
