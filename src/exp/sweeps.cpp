#include "exp/sweeps.hpp"

#include <string>
#include <utility>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"

namespace bbrnash {

namespace {

std::string describe_failure(int t, const RunOutcome& o) {
  return "trial " + std::to_string(t) + " (seed " +
         std::to_string(o.seed_used) + ", " + std::to_string(o.attempts) +
         " attempts): " + to_string(o.status) + ": " + o.diagnostics.message;
}

}  // namespace

TrialOutcomes run_trials(const Scenario& base, const TrialConfig& cfg) {
  const int trials = cfg.trials > 0 ? cfg.trials : 1;

  // Phase 1: run every trial, committing its outcome into the slot owned
  // by its index. Each trial's seed is a pure function of (cfg, t), so the
  // slots hold the same values no matter how many workers ran them.
  TrialOutcomes out;
  out.runs.resize(static_cast<std::size_t>(trials));
  parallel_for(cfg.jobs, static_cast<std::size_t>(trials),
               [&](std::size_t t) {
                 Scenario s = base;
                 s.duration = cfg.duration;
                 s.warmup = cfg.warmup;
                 s.seed = cfg.seed + static_cast<std::uint64_t>(t) * 1000003ULL;
                 s.impairments = cfg.impairments;
                 s.ack_impairments = cfg.ack_impairments;
                 s.capacity_schedule = cfg.capacity_schedule;
                 s.audit = cfg.audit;
                 out.runs[t] = run_scenario_guarded(s, cfg.guard);
               });

  // Phase 2: count in trial order, so the failures list is
  // deterministically sorted by trial index for every jobs value.
  for (int t = 0; t < trials; ++t) {
    const RunOutcome& o = out.runs[static_cast<std::size_t>(t)];
    if (!o.ok()) {
      ++out.failed;
      out.failures.push_back(describe_failure(t, o));
      continue;
    }
    ++out.completed;
    if (o.attempts > 1) ++out.retried;
  }
  note_trial_outcomes(static_cast<std::uint64_t>(out.retried),
                      static_cast<std::uint64_t>(out.failed));
  return out;
}

MixOutcome run_mix_trials(const NetworkParams& net, int num_cubic,
                          int num_other, CcKind other,
                          const TrialConfig& cfg) {
  return run_mix_trials(make_mix_scenario(net, num_cubic, num_other, other),
                        other, cfg);
}

MixOutcome run_mix_trials(const Scenario& mix, CcKind other,
                          const TrialConfig& cfg) {
  TrialOutcomes trials = run_trials(mix, cfg);
  MixOutcome avg;
  avg.trials_completed = trials.completed;
  avg.trials_retried = trials.retried;
  avg.trials_failed = trials.failed;
  avg.failures = std::move(trials.failures);

  // Reduce in trial order — the exact accumulation sequence of a serial
  // loop, so averages are bit-identical for every jobs value.
  for (const RunOutcome& o : trials.runs) {
    if (!o.ok()) continue;
    const RunResult& r = o.result;
    avg.per_flow_cubic_mbps += r.avg_goodput_mbps(CcKind::kCubic);
    avg.per_flow_other_mbps += r.avg_goodput_mbps(other);
    avg.total_cubic_mbps += r.total_goodput_mbps(CcKind::kCubic);
    avg.total_other_mbps += r.total_goodput_mbps(other);
    avg.avg_queue_delay_ms += r.avg_queue_delay_ms;
    avg.link_utilization += r.link_utilization;
    avg.cubic_buffer_avg += r.cubic_buffer_avg;
    avg.cubic_buffer_min += static_cast<double>(r.cubic_buffer_min);
    avg.noncubic_buffer_avg += r.noncubic_buffer_avg;
  }
  if (avg.trials_completed == 0) return avg;  // all diagnostics, no data
  const auto k = static_cast<double>(avg.trials_completed);
  avg.per_flow_cubic_mbps /= k;
  avg.per_flow_other_mbps /= k;
  avg.total_cubic_mbps /= k;
  avg.total_other_mbps /= k;
  avg.avg_queue_delay_ms /= k;
  avg.link_utilization /= k;
  avg.cubic_buffer_avg /= k;
  avg.cubic_buffer_min /= k;
  avg.noncubic_buffer_avg /= k;
  return avg;
}

}  // namespace bbrnash
