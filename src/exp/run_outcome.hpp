// Typed outcomes for guarded scenario runs.
//
// Sweeps and NE searches launch hundreds of simulations; one runaway or
// degenerate trial must not take the whole batch down. run_scenario_guarded
// therefore never lets an abort or an invariant violation escape as an
// exception: every attempt ends in a RunOutcome that says *what* happened
// (watchdog abort, invariant violation, error) with enough diagnostics to
// reproduce it, and degenerate trials are retried with a bumped seed.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/run_result.hpp"
#include "util/units.hpp"

namespace bbrnash {

class ChaosInjector;

enum class RunStatus {
  kOk,
  kAbortedEventBudget,   ///< watchdog: simulated-event budget exhausted
  kAbortedWallClock,     ///< watchdog: wall-clock limit exceeded
  kInvariantViolation,   ///< a runtime invariant guard fired
  kError,                ///< an exception escaped the simulation
};

[[nodiscard]] const char* to_string(RunStatus status);

/// Thrown by the unguarded run_scenario when an always-on invariant guard
/// fires (the guarded runner converts this into a RunOutcome instead).
class InvariantViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where and why a run ended (populated for every status, including kOk).
struct RunDiagnostics {
  std::string message;                 ///< empty when status == kOk
  std::uint64_t events_executed = 0;
  /// Events still queued when the run ended (EventQueue::size(), lane
  /// events included).
  std::uint64_t pending_events = 0;
  TimeNs sim_time_reached = 0;
  double wall_seconds = 0.0;
};

/// Watchdog limits for one simulation attempt. The event budget aborts
/// deterministically (same scenario + seed stops at the same event); the
/// wall-clock limit is a best-effort backstop checked between simulated
/// slices. 0 disables either limit.
struct WatchdogConfig {
  std::uint64_t max_events = 0;
  double max_wall_seconds = 0.0;
};

/// Retry policy for guarded runs.
struct GuardConfig {
  WatchdogConfig watchdog;
  /// Total attempts per scenario (>= 1). Attempt i runs with
  /// seed + i * seed_bump, the same degenerate-trial remedy the paper's
  /// testbed scripts applied by re-randomizing start offsets.
  int max_attempts = 1;
  std::uint64_t seed_bump = 0x9E3779B9ULL;
  /// Deterministic fault injection for tests and drills: an attempt whose
  /// scenario seed is listed here reports an invariant violation instead of
  /// its result. The seed-bump retry then proceeds normally.
  std::vector<std::uint64_t> inject_failure_seeds;
  /// Chaos injection (--chaos SEED). Chaos faults are environmental, so the
  /// guarded runner redoes the attempt with the SAME seed and does not
  /// consume a retry attempt — recovered results stay bit-identical to a
  /// fault-free run. Shared because sweeps copy GuardConfig per trial but
  /// the fire-once bookkeeping must be global to the experiment.
  std::shared_ptr<ChaosInjector> chaos;
};

// nodiscard on the TYPE: a dropped RunOutcome silently swallows a watchdog
// abort or invariant violation, so every producer inherits the check.
struct [[nodiscard]] RunOutcome {
  RunStatus status = RunStatus::kOk;
  RunResult result;          ///< complete only when ok(); partial otherwise
  RunDiagnostics diagnostics;
  std::uint64_t seed_used = 0;  ///< seed of the final attempt
  int attempts = 1;             ///< attempts consumed (1 = no retry)

  [[nodiscard]] bool ok() const noexcept { return status == RunStatus::kOk; }
};

}  // namespace bbrnash
