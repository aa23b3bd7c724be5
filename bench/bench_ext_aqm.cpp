// Extension (paper §5, "Taming the Zoo" / buffer sizing): how does the
// CUBIC/BBR competition — and the Nash Equilibrium — change when the
// bottleneck's drop-tail FIFO is replaced by RED or CoDel?
//
// Not a figure from the paper; this bench explores the question its
// discussion raises: in-network mechanisms will have to serve a *mixed*
// CUBIC/BBR population. Series per AQM: the 1v1 split, the shared queuing
// delay, and the empirical 10-flow NE.
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

namespace {

MixOutcome run_with_aqm(const NetworkParams& net, int nc, int nb,
                        AqmKind aqm, const TrialConfig& trial) {
  Scenario mix = make_mix_scenario(net, nc, nb);
  mix.aqm = aqm;
  return run_mix_trials(mix, CcKind::kBbr, trial);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Extension: AQM",
               "CUBIC/BBR split and queuing delay under drop-tail, RED, "
               "CoDel (50 Mbps, 40 ms, 5 BDP)");

  const NetworkParams net = make_params(50.0, 40.0, 5.0);
  const TrialConfig trial = trial_config(opts);

  // Each AQM is an independent cell (its trials run inline and reduce in
  // trial order); rows are emitted in kAllAqmKinds order.
  std::vector<MixOutcome> aqm_rows(std::size(kAllAqmKinds));
  for_each_cell(opts, aqm_rows.size(), [&](std::size_t i) {
    aqm_rows[i] = run_with_aqm(net, 1, 1, kAllAqmKinds[i], trial);
  });

  Table table({"aqm", "cubic_mbps", "bbr_mbps", "queue_delay_ms",
               "utilization"});
  for (std::size_t i = 0; i < aqm_rows.size(); ++i) {
    const MixOutcome& m = aqm_rows[i];
    table.add_row({std::string{to_string(kAllAqmKinds[i])},
                   format_double(m.per_flow_cubic_mbps),
                   format_double(m.per_flow_other_mbps),
                   format_double(m.avg_queue_delay_ms, 1),
                   format_double(m.link_utilization)});
  }
  emit(opts, table);

  if (opts.fidelity != Fidelity::kQuick && !opts.csv) {
    std::printf("10-flow proportion sweep under each AQM (per-flow BBR "
                "Mbps; fair share %.1f):\n",
                to_mbps(net.capacity) / 10.0);
    const std::vector<int> ks = {2, 5, 8};
    const std::vector<AqmKind> aqms = {AqmKind::kDropTail, AqmKind::kRed,
                                       AqmKind::kCoDel};
    // Flatten the (k x AQM) grid into parallel cells.
    std::vector<double> cells(ks.size() * aqms.size(), 0.0);
    for_each_cell(opts, cells.size(), [&](std::size_t c) {
      const int k = ks[c / aqms.size()];
      const AqmKind aqm = aqms[c % aqms.size()];
      cells[c] = run_with_aqm(net, 10 - k, k, aqm, trial).per_flow_other_mbps;
    });
    Table sweep({"num_bbr", "droptail", "red", "codel"});
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
      std::vector<double> row = {static_cast<double>(ks[ki])};
      for (std::size_t a = 0; a < aqms.size(); ++a) {
        row.push_back(cells[ki * aqms.size() + a]);
      }
      sweep.add_row(row);
    }
    emit(opts, sweep);
    std::printf(
        "reading: AQMs that keep the queue short erase the RTT+ inflation "
        "that lets CUBIC push BBR around in deep drop-tail buffers — the "
        "equilibrium question the paper leaves to future work.\n");
  }
  print_parallel_summary(opts);
  return 0;
}
