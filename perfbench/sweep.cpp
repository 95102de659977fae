// The `sweep` workload: repeated five-phase knowledge cycles against one
// file-backed repository that grows across a round of cycles.
//
// A cycle is one JUBE sweep of 16 IOR work packages, then extraction and
// persistence, anomaly detection on the new objects, and training the
// bandwidth predictor on everything stored so far. Rounds of kCycles cycles
// repeat, each on a fresh workspace, until the next round would overrun the
// window, and at least kMinRounds times; only whole rounds are measured, so
// every run sees the same repository sizes.
//
// Untraced cycles drive the KnowledgeCycle facade. Traced cycles make the
// same calls the facade makes, through the modules' public functions, with a
// timer around each layer.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "perfbench/common.hpp"
#include "src/analysis/anomaly.hpp"
#include "src/cycle/cycle.hpp"
#include "src/db/journal.hpp"
#include "src/extract/extractor.hpp"
#include "src/jube/runner.hpp"
#include "src/usage/prediction.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace iokc;

constexpr int kCycles = 32;            // cycles per round
constexpr int kPackagesPerCycle = 16;  // 4 transfer sizes x 2 task counts x 2 APIs
// Every round is set up kSetupsPerRound times, each timed, and the last set-up
// kept, so the set-up samples spread over the whole run.
constexpr int kSetupsPerRound = 5;
// Enough untraced cycles that their pooled p90 has 10 samples beyond it.
constexpr int kMinRounds = 4;

jube::JubeBenchmarkConfig cycle_config(int cycle) {
  jube::JubeBenchmarkConfig config;
  config.name = "sweep";
  config.outpath = "sweep";
  config.space.add_csv("transfer", "256k,512k,1m,2m");
  config.space.add_csv("tasks", "4,8");
  config.space.add_csv("api", "posix,mpiio");
  config.steps.push_back(jube::JubeStep{
      "run", "ior -a $api -b 4m -t $transfer -s 4 -i 4 -N $tasks -F -C "
             "-o /scratch/pb_c" + std::to_string(cycle) + "_${api}_${transfer}_${tasks}"});
  return config;
}

/// One round's state: a simulated environment seeded from (seed, round) and
/// a knowledge cycle over a fresh workspace and file repository.
struct Round {
  fs::path dir;
  std::unique_ptr<cycle::SimEnvironment> env;
  std::unique_ptr<cycle::KnowledgeCycle> cycle;
  int jobs = 1;
};

Round set_up(const Options& options, int round) {
  Round state;
  state.dir = fs::path(options.workdir) / ("round" + std::to_string(round));
  fs::remove_all(state.dir);
  fs::create_directories(state.dir);
  cycle::SimEnvironmentConfig config;
  config.seed = util::splitmix64(options.seed, static_cast<std::uint64_t>(round));
  state.env = std::make_unique<cycle::SimEnvironment>(config);
  state.cycle = std::make_unique<cycle::KnowledgeCycle>(
      *state.env, state.dir / "ws",
      persist::RepoTarget::parse("file:" + (state.dir / "k.db").string()));
  state.jobs = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  state.cycle->set_parallelism(state.jobs);
  return state;
}

void tear_down(Round& state) {
  state.cycle.reset();
  state.env.reset();
  std::error_code ignored;
  fs::remove_all(state.dir, ignored);
}

std::uintmax_t file_size_or_zero(const fs::path& path) {
  std::error_code error;
  const std::uintmax_t size = fs::file_size(path, error);
  return error ? 0 : size;
}

bool predictor_fits(const std::vector<usage::TrainingSample>& samples) {
  if (samples.size() < 8) {
    return false;
  }
  const usage::BandwidthPredictor predictor =
      usage::BandwidthPredictor::fit(samples);
  const std::vector<double>& coefficients = predictor.coefficients();
  return !coefficients.empty() &&
         std::all_of(coefficients.begin(), coefficients.end(),
                     [](double c) { return std::isfinite(c); });
}

/// One untraced cycle through the facade.
void facade_cycle(Round& state, int index, Report& report) {
  cycle::KnowledgeCycle& cycle = *state.cycle;
  const std::size_t before = cycle.stored_knowledge_ids().size();
  cycle.generate(cycle_config(index));
  const extract::ExtractionResult extracted = cycle.extract_and_persist();
  report.check(extracted.knowledge.size() == kPackagesPerCycle,
               "sweep: extracted objects != work packages");
  const std::vector<std::int64_t>& ids = cycle.stored_knowledge_ids();
  for (std::size_t i = before; i < ids.size(); ++i) {
    const knowledge::Knowledge object = cycle.repository().load_knowledge(ids[i]);
    analysis::detect_in_knowledge(object);
  }
  report.check(predictor_fits(usage::build_training_set(cycle.repository(),
                                                        "write")),
               "sweep: predictor did not fit");
}

/// One traced cycle: the facade's calls made one by one, each timed.
void traced_cycle(Round& state, int index, Report& report) {
  cycle::KnowledgeCycle& cycle = *state.cycle;
  persist::KnowledgeRepository& repository = cycle.repository();
  const fs::path journal = db::journal_path_for((state.dir / "k.db").string());
  const std::uintmax_t journal_before = file_size_or_zero(journal);

  auto start = Clock::now();
  const jube::JubeRunResult run = cycle.generate(cycle_config(index));
  report.add("jube.run_ms", since_ms(start));
  report.add("jube.work_packages", static_cast<double>(run.packages.size()));

  start = Clock::now();
  const std::vector<fs::path> outputs =
      jube::JubeRunner::discover_outputs(cycle.workspace());
  report.add("extract.discover_ms", since_ms(start));

  // The cycle's new outputs are this run's stdout files; extraction fans out
  // over the same job count the facade uses.
  std::vector<fs::path> fresh;
  for (const jube::WorkPackageResult& package : run.packages) {
    fresh.push_back(package.stdout_path);
  }
  std::uintmax_t bytes = 0;
  for (const fs::path& path : fresh) {
    bytes += file_size_or_zero(path);
  }
  std::vector<extract::ExtractionResult> extracted(fresh.size());
  const extract::KnowledgeExtractor extractor;
  start = Clock::now();
  util::parallel_for(fresh.size(), static_cast<std::size_t>(state.jobs),
                     [&](std::size_t i) {
                       extracted[i] = extractor.extract_file(fresh[i]);
                     });
  report.add("extract.parse_ms", since_ms(start));
  report.add("extract.files", static_cast<double>(fresh.size()));
  report.add("extract.bytes", static_cast<double>(bytes));

  std::vector<persist::SourceBatch> batches;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    persist::SourceBatch batch;
    batch.source = fresh[i].lexically_relative(cycle.workspace()).generic_string();
    batch.knowledge = std::move(extracted[i].knowledge);
    batch.io500 = std::move(extracted[i].io500);
    batches.push_back(std::move(batch));
  }
  start = Clock::now();
  const persist::StoreOutcome outcome = repository.store_sources(batches);
  report.add("persist.commit_ms", since_ms(start));
  const std::uintmax_t journal_after = file_size_or_zero(journal);
  report.add("persist.journal_bytes",
             static_cast<double>(journal_after > journal_before
                                     ? journal_after - journal_before
                                     : 0));
  report.check(outcome.knowledge_ids.size() == kPackagesPerCycle,
               "sweep: extracted objects != work packages");

  double load_ms = 0.0;
  double detect_ms = 0.0;
  std::size_t findings = 0;
  for (const std::int64_t id : outcome.knowledge_ids) {
    start = Clock::now();
    const knowledge::Knowledge object = repository.load_knowledge(id);
    load_ms += since_ms(start);
    start = Clock::now();
    findings += analysis::detect_in_knowledge(object).size();
    detect_ms += since_ms(start);
  }
  report.add("persist.load_ms", load_ms);
  report.add("analysis.detect_ms", detect_ms);
  report.add("analysis.findings", static_cast<double>(findings));

  start = Clock::now();
  const std::vector<usage::TrainingSample> samples =
      usage::build_training_set(repository, "write");
  report.add("usage.train_ms", since_ms(start));
  report.add("usage.samples", static_cast<double>(samples.size()));
  start = Clock::now();
  const bool fits = predictor_fits(samples);
  report.add("usage.fit_ms", since_ms(start));
  report.check(fits, "sweep: predictor did not fit");
}

/// Runs whole rounds until the next one would overrun the window, and at
/// least kMinRounds per pass. When tracing, untraced and traced rounds
/// alternate over the same seeds, so both passes see the same machine
/// conditions. Returns the untraced rounds' measured time (set-ups
/// excluded) and counts their work packages.
double run_rounds(const Options& options, Report& report) {
  const int passes = options.trace ? 2 : 1;
  double measured = 0.0;  // untraced rounds
  double elapsed = 0.0;   // every round
  double last_round = 0.0;
  for (int round = 0;
       round < passes * kMinRounds || elapsed + last_round <= options.seconds;
       ++round) {
    const bool traced = round % passes == 1;
    Round state;
    for (int k = 0; k < kSetupsPerRound; ++k) {
      if (k > 0) {
        tear_down(state);
      }
      const auto start = Clock::now();
      state = set_up(options, round / passes);
      report.setup_s.push_back(since_s(start));
    }
    const auto round_start = Clock::now();
    for (int c = 0; c < kCycles; ++c) {
      const auto start = Clock::now();
      try {
        if (traced) {
          traced_cycle(state, c, report);
          report.add("traced.cycle_ms", since_ms(start));
        } else {
          facade_cycle(state, c, report);
          report.add("cycle_ms", since_ms(start));
          report.ops += kPackagesPerCycle;
          report.add("cycle_t", measured + since_s(round_start));
        }
      } catch (const std::exception& error) {
        report.check(false, std::string("sweep: cycle threw: ") + error.what());
      }
    }
    last_round = since_s(round_start);
    elapsed += last_round;
    if (!traced) {
      measured += last_round;
      report.add("segment_end_s", measured);  // rounds are the segments
    }
    report.check(state.cycle->repository().knowledge_ids().size() ==
                     static_cast<std::size_t>(kCycles * kPackagesPerCycle),
                 "sweep: stored objects != work packages run");
    tear_down(state);
  }
  return measured;
}

}  // namespace

void run_sweep(const Options& options, Report& report) {
  for (int c = 0; c < kCycles; ++c) {
    report.mix(cycle_config(c).to_xml());
  }
  report.mix(std::to_string(options.seed));
  report.info["cycles_per_round"] = std::to_string(kCycles);
  report.info["ops_per_sample"] = std::to_string(kPackagesPerCycle);
  report.info["repository"] = "file-backed, fresh per round";

  report.window_s = run_rounds(options, report);
}

}  // namespace perfbench
