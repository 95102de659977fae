// iokc_perfbench: runs one knowledge-cycle benchmark workload and prints its
// raw report as one JSON line on stdout. run.py builds this binary, runs it,
// and turns the report into metrics.
//
//   iokc_perfbench --workload <sweep|serve_read|serve_mixed|serve_quorum>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Refuses (exit 3) to measure a Debug, assertion-enabled or sanitizer build:
// numbers from such a build say nothing about the code users run.
#include <sys/utsname.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>

#include "perfbench/common.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
#define PERFBENCH_REFUSE "sanitizer build"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_REFUSE "sanitizer build"
#endif
#endif
#if !defined(PERFBENCH_REFUSE) && !defined(NDEBUG)
#define PERFBENCH_REFUSE "assertions enabled (NDEBUG unset)"
#endif

namespace {

using perfbench::Options;

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || options.workdir.empty() || options.seconds <= 0) {
    throw std::invalid_argument(
        "usage: iokc_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir>");
  }
  return options;
}

std::string kernel() {
  struct utsname name {};
  if (::uname(&name) != 0) {
    return "unknown";
  }
  return std::string(name.sysname) + " " + name.release + " " + name.machine;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_REFUSE
  std::cerr << "iokc_perfbench: refusing to measure: " PERFBENCH_REFUSE
               " (build with CMAKE_BUILD_TYPE=Release)\n";
  return 3;
#else
  try {
    const Options options = parse_args(argc, argv);
    perfbench::Report report;
    report.info["workload"] = options.workload;
    report.info["seed"] = std::to_string(options.seed);
    report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report.info["compiler"] = PERFBENCH_COMPILER;
    report.info["build_type"] = PERFBENCH_BUILD_TYPE;
    report.info["kernel"] = kernel();
    std::filesystem::create_directories(options.workdir);
    if (options.workload == "sweep") {
      perfbench::run_sweep(options, report);
    } else if (options.workload == "serve_read" ||
               options.workload == "serve_mixed" ||
               options.workload == "serve_quorum") {
      perfbench::run_serve(options, report);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.workdir, ignored);
    std::cout << report.to_json().dump() << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "iokc_perfbench: " << error.what() << "\n";
    return 2;
  }
#endif
}
