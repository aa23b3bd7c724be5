// Shared pieces of the end-to-end benchmark (bbrnash_e2e and
// bbrnash_e2e_trace): the four workloads' inputs, the command line, the
// clock, process counters and the result line.
//
// A workload is an unbounded stream of units of work. Unit u of a run with
// seed S uses trial seed S + u * 1000003 (the run_mix_trials convention),
// so the same seed always gives the same inputs, and a timed run simply
// takes units from the stream until its time is up. The fig3_two_flow and
// ne_fig9 grids are walked in a fixed shuffled order, so whatever prefix a
// run reaches covers the grid evenly however fast the code is.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/nash_search.hpp"
#include "exp/scenario.hpp"
#include "model/network_params.hpp"

namespace bbrnash::e2e {

// bbrnash-lint: allow(wall-clock) -- the benchmark MEASURES wall time;
// no reading ever feeds back into a simulated result.
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Workload { kTrials50Flow, kNeFig9, kFig3TwoFlow, kImpaired8Flow };

inline constexpr Workload kAllWorkloads[] = {
    Workload::kTrials50Flow, Workload::kNeFig9, Workload::kFig3TwoFlow,
    Workload::kImpaired8Flow};

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Units a --smoke run takes: 2 trials, 2 NE points, 4 Fig. 3 cells.
[[nodiscard]] std::size_t smoke_units(Workload w);

/// NE search points run concurrently (the only multi-threaded workload).
/// Three workers leave one of a 4-core machine's cores to the checkpoint
/// writer threads and the system: with four, points ran slower and their
/// times spread 1.6x wider between runs.
inline constexpr int kNeThreads = 3;
inline constexpr int kNeFlows = 50;

struct Options {
  std::vector<Workload> workloads;  ///< empty: every workload
  std::uint64_t seed = 1;
  double seconds = 25.0;   ///< length of the timed phase
  bool smoke = false;      ///< fixed tiny unit counts, no timing
  std::string run_dir = "build/e2e/run";
  std::string out;             ///< append one result record per workload
  std::string check_expected;  ///< compare deterministic outputs
  std::string write_expected;  ///< record deterministic outputs
  std::vector<std::string> compare;  ///< two result files
};

/// Strict parser; throws std::invalid_argument naming the bad flag.
[[nodiscard]] Options parse_options(int argc, char** argv);

[[nodiscard]] std::uint64_t unit_seed(std::uint64_t seed, std::size_t u);

/// Bottleneck of unit u: the workload's fixed path, or its Fig. 3 cell or
/// NE grid point.
[[nodiscard]] NetworkParams unit_network(Workload w, std::size_t u);

/// The simulated trial of unit u. For ne_fig9 it is one even-mix trial at
/// the unit's grid point, the shape its searches spend their time in.
[[nodiscard]] Scenario unit_scenario(Workload w, std::uint64_t seed,
                                     std::size_t u);

/// NE search settings of ne_fig9 unit u (3 trials x 60 s per probed mix),
/// checkpointed to `log_path`.
[[nodiscard]] NashSearchConfig ne_config(std::uint64_t seed, std::size_t u,
                                         const std::string& log_path);

/// Process-wide counters: CPU time, peak resident memory, preemptions.
struct ProcStats {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t invol_ctx_switches = 0;
};
[[nodiscard]] ProcStats proc_stats();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`; values keep all their digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

/// Human-readable metric table, one `name value unit` row each.
void print_metrics(Workload w, const std::vector<Metric>& metrics);

/// Fresh per-run scratch directory `<run_dir>/<workload>-s<seed>`.
[[nodiscard]] std::string fresh_run_dir(const Options& opts, Workload w,
                                        const char* tag);

}  // namespace bbrnash::e2e
