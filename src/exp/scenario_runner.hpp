// ScenarioRunner: runs a Scenario on its dumbbell (exp/dumbbell.hpp)
// under a watchdog and extracts a RunResult.
//
// All of a flow's propagation delay is split across its two delay lines,
// so the base (congestion-free) RTT is exactly r_i and every queueing byte
// adds sojourn time at the shared bottleneck — the configuration the
// paper's model describes (Fig. 2).
#pragma once

#include "exp/run_outcome.hpp"
#include "exp/run_result.hpp"
#include "exp/scenario.hpp"

namespace bbrnash {

/// Runs the scenario to completion and returns measurements taken over
/// [warmup, duration]. Throws std::invalid_argument for ill-formed
/// scenarios (Scenario::validate) and InvariantViolation when an always-on
/// runtime guard fires (conservation, queue bound, clock monotonicity).
[[nodiscard]] RunResult run_scenario(const Scenario& scenario);

/// Exception-free variant for sweeps: runs under the guard's watchdog
/// (event budget + wall-clock backstop), converts aborts / invariant
/// violations / errors into a typed RunOutcome, and retries degenerate
/// attempts with a bumped seed up to guard.max_attempts times.
[[nodiscard]] RunOutcome run_scenario_guarded(const Scenario& scenario,
                                              const GuardConfig& guard = {});

}  // namespace bbrnash
