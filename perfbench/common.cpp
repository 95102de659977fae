#include "perfbench/common.hpp"

#include <sys/resource.h>

#include <string>
#include <utility>

#include "src/util/rng.hpp"

namespace perfbench {

using iokc::util::JsonArray;
using iokc::util::JsonObject;
using iokc::util::JsonValue;

void Report::check(bool ok, const std::string& reason) {
  ++attempted;
  if (!ok) {
    ++failed;
    ++failures[reason];
  }
}

void Report::mix(std::string_view bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ull;
  }
}

void Report::merge(const Report& other) {
  ops += other.ops;
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& [reason, count] : other.failures) {
    failures[reason] += count;
  }
  for (const auto& [name, values_in] : other.samples) {
    std::vector<double>& into = samples[name];
    into.insert(into.end(), values_in.begin(), values_in.end());
  }
}

JsonValue Report::to_json() const {
  JsonObject out;
  JsonArray setup;
  for (const double s : setup_s) {
    setup.emplace_back(s);
  }
  out.emplace_back("setup_s", JsonValue(std::move(setup)));
  out.emplace_back("window_s", JsonValue(window_s));
  out.emplace_back("ops", JsonValue(ops));
  out.emplace_back("attempted", JsonValue(attempted));
  out.emplace_back("failed", JsonValue(failed));
  JsonObject reasons;
  for (const auto& [reason, count] : failures) {
    reasons.emplace_back(reason, JsonValue(count));
  }
  out.emplace_back("failures", JsonValue(std::move(reasons)));
  JsonObject sample_object;
  for (const auto& [name, list] : samples) {
    JsonArray array;
    array.reserve(list.size());
    for (const double v : list) {
      array.emplace_back(v);
    }
    sample_object.emplace_back(name, JsonValue(std::move(array)));
  }
  out.emplace_back("samples", JsonValue(std::move(sample_object)));
  JsonObject value_object;
  for (const auto& [name, v] : values) {
    value_object.emplace_back(name, JsonValue(v));
  }
  out.emplace_back("values", JsonValue(std::move(value_object)));
  JsonObject info_object;
  for (const auto& [key, v] : info) {
    info_object.emplace_back(key, JsonValue(v));
  }
  out.emplace_back("info", JsonValue(std::move(info_object)));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.emplace_back("digest", JsonValue(std::string(hex)));
  out.emplace_back("peak_rss_mib", JsonValue(peak_rss_mib()));
  return JsonValue(std::move(out));
}

iokc::knowledge::Knowledge synthetic_knowledge(std::uint64_t seed,
                                               std::uint64_t index) {
  iokc::util::Rng rng(iokc::util::splitmix64(seed, index));
  static constexpr const char* kTransfers[] = {"256k", "512k", "1m", "2m"};
  static constexpr std::uint32_t kTasks[] = {4, 8, 16};
  const bool mpiio = rng.uniform() < 0.5;
  const char* transfer = kTransfers[rng.uniform_int(0, 3)];
  const std::uint32_t tasks = kTasks[rng.uniform_int(0, 2)];

  iokc::knowledge::Knowledge object;
  object.benchmark = "IOR";
  object.api = mpiio ? "MPIIO" : "POSIX";
  object.command = std::string("ior -a ") + (mpiio ? "mpiio" : "posix") +
                   " -b 4m -t " + transfer + " -s 4 -i 4 -N " +
                   std::to_string(tasks) + " -o /scratch/pb" +
                   std::to_string(index);
  object.test_file = "/scratch/pb" + std::to_string(index);
  object.num_tasks = tasks;
  object.num_nodes = 1 + tasks / 8;
  object.start_time = 1.6e9 + static_cast<double>(index) * 60.0;
  object.end_time = object.start_time + 30.0;
  const bool slow = rng.uniform() < 1.0 / 16.0;
  for (const char* operation : {"write", "read"}) {
    iokc::knowledge::OpSummary summary;
    summary.operation = operation;
    summary.api = object.api;
    const double base = (operation[0] == 'w' ? 800.0 : 1000.0) +
                        rng.uniform(0.0, 900.0) + (mpiio ? 150.0 : 0.0);
    for (int it = 0; it < 4; ++it) {
      iokc::knowledge::OpResult result;
      result.iteration = it;
      result.bw_mib = base * rng.uniform(0.95, 1.05) *
                      (slow && it == 2 ? 0.3 : 1.0);
      result.iops = result.bw_mib * 4.0;
      result.total_sec = 4096.0 / result.bw_mib;
      result.wrrd_sec = result.total_sec * 0.9;
      result.open_sec = result.total_sec * 0.05;
      result.close_sec = result.total_sec * 0.05;
      result.latency_sec = result.total_sec / 64.0;
      summary.results.push_back(result);
    }
    summary.recompute();
    object.summaries.push_back(std::move(summary));
  }
  return object;
}

double peak_rss_mib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
