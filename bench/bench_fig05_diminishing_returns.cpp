// Figure 5 (a–d): diminishing returns for BBR. For N = 10 and 20 flows
// through 100 Mbps / 40 ms with buffers of 3 and 10 BDP, the number of BBR
// flows is swept 1..N; the series are the model's sync/desync bounds and
// the simulated average per-flow BBR throughput. The paper's takeaway:
// BBR's per-flow bandwidth falls as the proportion of BBR flows rises, and
// eventually crosses the fair-share line.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/mishra_model.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

void run_panel(const BenchOptions& opts, int total_flows, double buffer_bdp) {
  Table table({"num_bbr", "sync_bound_mbps", "desync_bound_mbps",
               "sim_bbr_mbps", "fair_share_mbps"});
  const TrialConfig trial = trial_config(opts);
  const NetworkParams net = make_params(100.0, 40.0, buffer_bdp);
  const double fair = to_mbps(net.capacity) / total_flows;

  const int step = opts.fidelity == Fidelity::kQuick ? 3
                   : opts.fidelity == Fidelity::kFull ? 1
                                                      : (total_flows > 10 ? 2 : 1);
  std::vector<int> ks;
  for (int k = 1; k <= total_flows; k += step) ks.push_back(k);

  // Parallel cells, slot-committed; table rows and trend statistics are
  // reduced in k order afterwards (byte-identical for every --jobs).
  struct Row {
    double lo = 0, hi = 0, sim = 0;
  };
  std::vector<Row> rows(ks.size());
  for_each_cell(opts, ks.size(), [&](std::size_t i) {
    const int k = ks[i];
    const MixOutcome sim =
        run_mix_trials(net, total_flows - k, k, CcKind::kBbr, trial);
    rows[i].sim = sim.per_flow_other_mbps;
  });
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const int nc = total_flows - ks[i];
    Row& r = rows[i];
    if (nc >= 1) {
      const auto region = prediction_interval(net, nc, ks[i]);
      if (region) {
        r.lo = to_mbps(region->sync.per_flow_bbr);
        r.hi = to_mbps(region->desync.per_flow_bbr);
      }
    } else {
      r.lo = r.hi = fair;  // all-BBR: fair share by definition
    }
  }

  double first_mixed = 0.0;
  double max_mixed = 0.0;
  double last_mixed = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const int k = ks[i];
    const Row& r = rows[i];
    // The diminishing-returns claim concerns *mixed* distributions: at
    // k = N the CUBIC pressure vanishes and per-flow BBR legitimately
    // jumps back to fair share, so the all-BBR point is excluded from the
    // trend statistics.
    if (total_flows - k >= 1) {
      if (first) first_mixed = r.sim;
      max_mixed = std::max(max_mixed, r.sim);
      last_mixed = r.sim;
      first = false;
    }
    table.add_row({static_cast<double>(k), r.lo, r.hi, r.sim, fair});
  }

  if (!opts.csv) {
    std::printf("-- panel: %d flows, %.0f BDP buffer --\n", total_flows,
                buffer_bdp);
  }
  emit(opts, table);
  if (!opts.csv) {
    // Individual deep-buffer points are noisy across 3 trials; the claim
    // is about the trend: the rare-BBR end is the peak and the advantage
    // has clearly eroded by the crowded-BBR end.
    const bool declining =
        first_mixed >= 0.8 * max_mixed && last_mixed < 0.6 * first_mixed;
    std::printf(
        "diminishing returns (k=1 is ~peak, per-flow BBR at k=N-1 < 60%% of "
        "k=1): %s (%.1f -> %.1f Mbps)\n\n",
        declining ? "yes" : "violated", first_mixed, last_mixed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Figure 5",
               "per-flow BBR throughput vs number of BBR flows");
  run_panel(opts, 10, 3.0);
  run_panel(opts, 20, 3.0);
  run_panel(opts, 10, 10.0);
  run_panel(opts, 20, 10.0);
  print_parallel_summary(opts);
  return 0;
}
