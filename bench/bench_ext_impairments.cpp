// Extension (robustness): does the paper's BBR-dominant equilibrium
// survive a non-pristine path?
//
// The model (and every figure bench) assumes the only loss is drop-tail
// overflow. Real access paths add random loss, and BBR's loss resilience
// is exactly what CUBIC lacks — so random loss should push the empirical
// NE toward *more* BBR, and shallow buffers should amplify the push.
// This bench sweeps i.i.d. loss rate x buffer depth, finds the empirical
// NE at each cell (crossing search, guarded trials), and reports the NE
// drift relative to the clean-path cell of the same buffer.
//
// Extra flag beyond the common bench options:
//   --checkpoint PATH  append-only JSONL checkpoint; a killed sweep
//                      restarted with the same path resumes and reproduces
//                      the uninterrupted numbers exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/nash_search.hpp"
#include "model/nash.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv, kCheckpointFlag);
  print_banner(opts, "Extension: impairments",
               "empirical NE (k = BBR flows of 8) under i.i.d. loss x "
               "buffer depth (20 Mbps, 20 ms)");

  const int total_flows = 8;
  const std::vector<double> loss_rates = {0.0, 0.005, 0.02};
  const std::vector<double> buffer_bdps = {1.0, 5.0, 15.0};

  NashSearchConfig cfg;
  cfg.trial = trial_config(opts);
  cfg.tolerance_frac = 0.10;
  cfg.checkpoint_path = opts.checkpoint;
  // Guarded trials: a generous event budget aborts a runaway cell instead
  // of hanging the sweep, and a degenerate trial gets one seed-bump retry.
  cfg.trial.guard.watchdog.max_events = 200'000'000;
  cfg.trial.guard.max_attempts = 2;

  Table table({"buffer_bdp", "loss_rate", "ne_bbr_flows", "drift_vs_clean",
               "model_clean_lo", "model_clean_hi"});
  // The outer grid deliberately stays serial: every cell appends to the
  // same checkpoint file, and each loss row's drift is computed against
  // the clean-path NE of the same buffer, found earlier in the loop.
  // Parallelism comes from cfg.trial.jobs — the trials inside each probed
  // distribution fan out while the sweep order (and checkpoint resume
  // behaviour) stays exactly serial.
  for (const double bdp : buffer_bdps) {
    const NetworkParams net = make_params(20.0, 20.0, bdp);
    const auto region = predict_nash_region(net, total_flows);
    int clean_ne = 0;
    for (const double loss : loss_rates) {
      cfg.trial.impairments.loss_rate = loss;
      const int ne = find_ne_crossing(net, total_flows, cfg);
      if (loss == 0.0) clean_ne = ne;
      table.add_row(
          {format_double(bdp, 1), format_double(loss, 3),
           std::to_string(ne), std::to_string(ne - clean_ne),
           region ? format_double(total_flows - region->cubic_high(), 1)
                  : "n/a",
           region ? format_double(total_flows - region->cubic_low(), 1)
                  : "n/a"});
    }
  }
  emit(opts, table);
  if (!opts.csv) {
    std::printf(
        "reading: positive drift = random loss pushes the equilibrium "
        "toward more BBR (its loss resilience is worth more when CUBIC "
        "bleeds); the model columns are the paper's clean-path prediction "
        "for reference.\n");
    if (!opts.checkpoint.empty()) {
      std::printf("checkpoint: %s\n", opts.checkpoint.c_str());
    }
  }
  print_parallel_summary(opts);
  return 0;
}
