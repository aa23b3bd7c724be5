// Trial-averaged mix measurements — the workhorse behind every figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "exp/run_outcome.hpp"
#include "exp/run_result.hpp"
#include "exp/scenario.hpp"
#include "model/network_params.hpp"

namespace bbrnash {

struct TrialConfig {
  TimeNs duration = from_sec(40);
  TimeNs warmup = from_sec(8);
  int trials = 3;
  std::uint64_t seed = 1;

  /// Worker threads for the trial loop: 1 (the default) runs serially on
  /// the calling thread — the reference semantics; 0 means one worker per
  /// hardware thread; N means N workers. Per-trial seeds are pure
  /// functions of this config and results are committed by trial index,
  /// so the measured numbers are bit-identical for every value (asserted
  /// by tests/exp/test_parallel.cpp). Nested calls (e.g. inside a
  /// parallel measure_payoffs) run their trials inline regardless.
  int jobs = 1;

  /// Path conditions applied to every trial's scenario (pristine by
  /// default, matching the paper). See Scenario for the semantics.
  ImpairmentConfig impairments;
  ImpairmentConfig ack_impairments;
  std::vector<RateChange> capacity_schedule;

  /// Conservation audit + flight recorder applied to every trial (--audit).
  /// Audited samples are read-only, so results are identical with or
  /// without it; excluded from checkpoint keys for that reason.
  AuditConfig audit;

  /// Watchdog + retry policy per trial. The default (one attempt, no
  /// limits) reproduces the unguarded behaviour exactly.
  GuardConfig guard;
};

/// Every trial of one scenario, by trial index, with the sweep-hardening
/// counts. A trial that still fails after its retries stays in `runs`
/// (not ok()) and is reported in `failures` instead of taking the whole
/// sweep down.
struct [[nodiscard]] TrialOutcomes {
  std::vector<RunOutcome> runs;
  int completed = 0;
  int retried = 0;   ///< completed trials that needed > 1 attempt
  int failed = 0;
  std::vector<std::string> failures;  ///< one diagnosis per failed trial
};

/// The one trial loop behind every measurement, and the only place trial
/// seeds are derived (from cfg.seed and the trial index alone). `base`
/// carries the flows and any scenario knob (aqm, bbr_cwnd_gain, ...); each
/// trial copies it, applies cfg's duration, warm-up, path conditions and
/// audit, and runs through run_scenario_guarded(cfg.guard) on cfg.jobs
/// workers. Retry and failure counts also go to the parallel telemetry.
[[nodiscard]] TrialOutcomes run_trials(const Scenario& base,
                                       const TrialConfig& cfg);

/// Averages over trials of a (num_cubic x CUBIC) vs (num_other x `other`)
/// mix through `net`.
struct [[nodiscard]] MixOutcome {
  double per_flow_cubic_mbps = 0.0;   ///< 0 when num_cubic == 0
  double per_flow_other_mbps = 0.0;   ///< 0 when num_other == 0
  double total_cubic_mbps = 0.0;
  double total_other_mbps = 0.0;
  double avg_queue_delay_ms = 0.0;
  double link_utilization = 0.0;
  double cubic_buffer_avg = 0.0;      ///< model's aggregate b_c
  double cubic_buffer_min = 0.0;      ///< model's b_cmin
  double noncubic_buffer_avg = 0.0;   ///< model's b_b

  // Sweep-hardening bookkeeping. Averages above cover completed trials
  // only; a trial that still fails after its retries is excluded and
  // reported here instead of taking the whole sweep down.
  int trials_completed = 0;
  int trials_retried = 0;   ///< completed trials that needed > 1 attempt
  int trials_failed = 0;
  std::vector<std::string> failures;  ///< one diagnosis per failed trial
};

[[nodiscard]] MixOutcome run_mix_trials(const NetworkParams& net,
                                        int num_cubic, int num_other,
                                        CcKind other, const TrialConfig& cfg);

/// The same averages over trials of `mix`, a CUBIC vs `other` flow mix
/// with its own scenario knobs (e.g. make_mix_scenario plus an AQM).
[[nodiscard]] MixOutcome run_mix_trials(const Scenario& mix, CcKind other,
                                        const TrialConfig& cfg);

}  // namespace bbrnash
