#include "exp/sweeps.hpp"

#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"

namespace bbrnash {

MixOutcome run_mix_trials(const NetworkParams& net, int num_cubic,
                          int num_other, CcKind other,
                          const TrialConfig& cfg) {
  const int trials = cfg.trials > 0 ? cfg.trials : 1;

  // Phase 1: run every trial, committing its outcome into the slot owned
  // by its index. Each trial's seed is a pure function of (cfg, t), so the
  // slots hold the same values no matter how many workers ran them.
  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(trials));
  parallel_for(cfg.jobs, static_cast<std::size_t>(trials),
               [&](std::size_t t) {
                 Scenario s =
                     make_mix_scenario(net, num_cubic, num_other, other);
                 s.duration = cfg.duration;
                 s.warmup = cfg.warmup;
                 s.seed = cfg.seed + static_cast<std::uint64_t>(t) * 1000003ULL;
                 s.impairments = cfg.impairments;
                 s.ack_impairments = cfg.ack_impairments;
                 s.capacity_schedule = cfg.capacity_schedule;
                 s.audit = cfg.audit;
                 outcomes[t] = run_scenario_guarded(s, cfg.guard);
               });

  // Phase 2: reduce in trial order — the exact accumulation sequence of
  // the serial loop, so averages are bit-identical for every jobs value
  // and the failures list is deterministically sorted by trial index.
  MixOutcome avg;
  for (int t = 0; t < trials; ++t) {
    const RunOutcome& o = outcomes[static_cast<std::size_t>(t)];
    if (!o.ok()) {
      ++avg.trials_failed;
      avg.failures.push_back("trial " + std::to_string(t) + " (seed " +
                             std::to_string(o.seed_used) + ", " +
                             std::to_string(o.attempts) + " attempts): " +
                             to_string(o.status) + ": " +
                             o.diagnostics.message);
      continue;
    }
    ++avg.trials_completed;
    if (o.attempts > 1) ++avg.trials_retried;

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
  note_trial_outcomes(static_cast<std::uint64_t>(avg.trials_retried),
                      static_cast<std::uint64_t>(avg.trials_failed));
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
