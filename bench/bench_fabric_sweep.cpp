// Fabric throughput harness: cells/sec for the same payoff-grid sweep run
// (a) in-process on the calling thread and (b) sharded across forked
// worker processes by the sweep fabric (exp/fabric.hpp). Prints both
// timings plus the fork/lease overhead ratio, and — because speed means
// nothing if the numbers move — asserts the fabric cells are bit-identical
// to the in-process run before reporting.
//
// The default grid is the paper's k = 0..N payoff column at bench
// fidelity; --workers picks the pool size (default 2). This is the only
// bench driver that takes the fabric flags.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "exp/checkpoint.hpp"
#include "exp/fabric.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

// bbrnash-lint: allow(wall-clock) -- this harness MEASURES wall time;
// nothing here feeds back into simulated results.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

FabricConfig fabric_config(const BenchOptions& opts) {
  FabricConfig fab;
  fab.workers = opts.workers;
  fab.lease_ms = opts.lease_ms;
  fab.max_worker_retries = opts.max_worker_retries;
  fab.chaos = opts.chaos;
  return fab;
}

/// A human summary line, plus the bbrnash-fabric-stats-v1 JSON record
/// when --fabric-stats was given (the record prints even under --csv; the
/// summary line does not).
void print_fabric_summary(const BenchOptions& opts, const FabricStats& stats) {
  if (!opts.csv) {
    std::printf(
        "### fabric: %d workers, %llu/%llu cells committed "
        "(%llu resumed, %llu reassigned, %llu deaths, %llu hangs), "
        "%.1f cells/s\n",
        static_cast<int>(stats.workers.size()),
        static_cast<unsigned long long>(stats.cells_committed),
        static_cast<unsigned long long>(stats.cells_total),
        static_cast<unsigned long long>(stats.cells_from_checkpoint),
        static_cast<unsigned long long>(stats.cells_reassigned),
        static_cast<unsigned long long>(stats.worker_deaths),
        static_cast<unsigned long long>(stats.worker_hangs),
        stats.cells_per_second);
  }
  if (opts.fabric_stats) {
    std::printf("%s\n", fabric_stats_to_record(stats).encode().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = parse_options(argc, argv, kFabricFlags);
  if (opts.workers < 1) opts.workers = 2;
  print_banner(opts, "Fabric",
               "sweep cells/sec: in-process vs forked worker fabric");

  const int total_flows = opts.fidelity == Fidelity::kQuick ? 3
                          : opts.fidelity == Fidelity::kFull ? 10
                                                             : 6;
  const NetworkParams net = make_params(100.0, 40.0, 3.0);
  const TrialConfig trial = trial_config(opts);
  std::vector<FabricCell> cells;
  for (int k = 0; k <= total_flows; ++k) {
    cells.push_back(FabricCell{total_flows - k, k});
  }

  const Clock::time_point serial_start = Clock::now();
  std::vector<MixOutcome> serial;
  serial.reserve(cells.size());
  for (const FabricCell& c : cells) {
    serial.push_back(
        run_mix_trials(net, c.num_cubic, c.num_other, CcKind::kBbr, trial));
  }
  const double serial_s = seconds_since(serial_start);

  const Clock::time_point fabric_start = Clock::now();
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fabric_config(opts));
  const double fabric_s = seconds_since(fabric_start);
  if (!out.complete()) {
    std::fprintf(stderr, "fabric: %s: %s\n", to_string(out.status),
                 out.message.c_str());
    return 1;
  }

  // Bit-identity gate: compare through the checkpoint encoding, the same
  // %.17g round-trip the fabric's own results took.
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (mix_to_record(*out.cells[i]).encode() !=
        mix_to_record(serial[i]).encode()) {
      ++diverged;
      std::fprintf(stderr, "cell %zu diverged from the in-process run\n", i);
    }
  }

  const double n = static_cast<double>(cells.size());
  Table table({"mode", "cells", "seconds", "cells_per_sec"});
  table.add_row({std::string{"in-process"}, format_double(n, 0),
                 format_double(serial_s, 3), format_double(n / serial_s, 1)});
  table.add_row({std::string{"fabric"}, format_double(n, 0),
                 format_double(fabric_s, 3), format_double(n / fabric_s, 1)});
  emit(opts, table);
  if (!opts.csv) {
    std::printf("bit-identical to in-process: %s\n",
                diverged == 0 ? "yes" : "NO");
    std::printf("fabric overhead: %.2fx serial wall time (%d workers)\n\n",
                fabric_s / serial_s, opts.workers);
  }
  print_fabric_summary(opts, out.stats);
  print_parallel_summary(opts);
  return diverged == 0 ? 0 : 1;
}
