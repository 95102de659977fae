// Shared pieces of the knowledge-cycle benchmark program: options, the report
// one run fills in, seeded input generation, and clocks.
//
// iokc_perfbench only measures. It writes raw samples and exact counts into a
// Report; run.py turns them into medians, percentiles and ratios, so the
// statistics live in one place and are covered by test_harness.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/knowledge/knowledge.hpp"
#include "src/util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;  // sweep | serve_read | serve_mixed | serve_quorum
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time, shared by both passes when tracing
  bool trace = false;     // also run the traced pass and the layer probes
  std::string workdir;    // scratch directory, removed by the caller
};

using Clock = std::chrono::steady_clock;

inline double since_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}
inline double since_ms(Clock::time_point start) {
  return since_us(start) / 1000.0;
}
inline double since_s(Clock::time_point start) {
  return since_us(start) / 1e6;
}

/// Everything one run measured.
struct Report {
  std::vector<double> setup_s;  // one sample per set-up repetition
  double window_s = 0.0;        // measured window of the untraced pass
  std::uint64_t ops = 0;        // completed operations in that window
  /// Operations attempted plus output checks made, and how many of either
  /// failed; fail_frac is failed / attempted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  // reason -> count
  /// Raw samples by name: end-to-end latencies ("lookup_us", "cycle_ms", and
  /// "traced.*" twins from the traced pass) and per-layer timings.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;  // exact per-layer counts and ratios
  std::map<std::string, std::string> info;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a of the inputs

  void add(const std::string& name, double sample) {
    samples[name].push_back(sample);
  }
  /// One output check: counted as attempted, and as failed unless `ok`.
  void check(bool ok, const std::string& reason);
  /// Folds input bytes into the digest.
  void mix(std::string_view bytes);
  /// Merges another report's samples, counts and failures (per-thread
  /// reports are folded into the run's report).
  void merge(const Report& other);

  iokc::util::JsonValue to_json() const;
};

/// A synthetic IOR knowledge object with four write and four read
/// iterations. Values are a pure function of (seed, index); roughly one
/// object in sixteen carries a slow iteration so anomaly detection has
/// findings to report. Commands are unique per index.
iokc::knowledge::Knowledge synthetic_knowledge(std::uint64_t seed,
                                               std::uint64_t index);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

void run_sweep(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace perfbench
