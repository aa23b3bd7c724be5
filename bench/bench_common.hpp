// Shared scaffolding for the figure-regeneration benches.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/fidelity.hpp"
#include "exp/sweeps.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bbrnash::bench {

/// Flags a driver accepts beyond the common set. Every other driver
/// rejects them as unknown, so a flag never runs silently ignored.
enum ExtraFlags : unsigned {
  kNoExtraFlags = 0,
  /// --workers N --lease-ms MS --max-worker-retries N --fabric-stats
  kFabricFlags = 1U << 0,
  /// --checkpoint PATH
  kCheckpointFlag = 1U << 1,
};

/// Parsed command line common to all benches:
///   [--csv] [--seed N] [--fidelity quick|default|full] [--jobs N]
///   [--audit] [--chaos SEED]
/// plus the driver's ExtraFlags.
struct BenchOptions {
  bool csv = false;
  std::uint64_t seed = 1;
  Fidelity fidelity = Fidelity::kDefault;
  /// Sweep workers: 0 (default) = one per hardware thread, 1 = serial.
  /// Output is bit-identical for every value (see exp/parallel.hpp).
  int jobs = 0;
  /// Conservation audit on every trial (--audit). Read-only sampling, so
  /// the figures are identical with or without it.
  bool audit = false;
  /// Deterministic fault injection (--chaos SEED); null = off. One
  /// injector per run, so each fault site fires once across every sweep
  /// the driver runs; every fault is retried with the same trial seed, so
  /// figures stay bit-identical.
  std::shared_ptr<ChaosInjector> chaos;
  /// Forked fabric worker processes (exp/fabric.hpp) for the cells.
  int workers = 0;
  double lease_ms = 2000.0;      ///< --lease-ms: heartbeat deadline
  int max_worker_retries = 3;    ///< --max-worker-retries: per-cell budget
  bool fabric_stats = false;     ///< --fabric-stats: JSON stats record
  std::string checkpoint;        ///< --checkpoint PATH: JSONL resume log
};

/// Strict parser: an unknown flag (a flag outside the common set and
/// `extra`) or a malformed value prints a diagnosis and exits 2 — a
/// typo'd knob must never silently run the default sweep.
BenchOptions parse_options(int argc, char** argv,
                           unsigned extra = kNoExtraFlags);

/// Prints the figure banner: what is being reproduced and at what fidelity.
void print_banner(const BenchOptions& opts, const std::string& figure,
                  const std::string& description);

/// Emits the table in the selected format.
void emit(const BenchOptions& opts, const Table& table);

/// Trial config at the chosen fidelity (carries opts.jobs).
TrialConfig trial_config(const BenchOptions& opts);

/// Runs fn(i) for i in [0, n) on opts.jobs workers. fn must commit its
/// results by index (slot per sweep point); emit the table afterwards in
/// index order and the output is byte-identical to --jobs 1.
void for_each_cell(const BenchOptions& opts, std::size_t n,
                   const std::function<void(std::size_t)>& fn);

/// Prints the per-run parallel telemetry footer (suppressed under --csv)
/// and, under --chaos, the injector's `chaos seed=... fired=...` summary
/// to stderr.
void print_parallel_summary(const BenchOptions& opts);

}  // namespace bbrnash::bench
