// Ablation: the paper's assumption 2 — "BBR flows always maintain 2 BDP
// packets in flight" — via the ProbeBW cwnd gain. The model hard-codes the
// factor 2 (Eq. 7). Here we vary BBR's cwnd gain and compare the simulated
// BBR share against (a) the standard model and (b) a gain-generalized
// variant of Eq. 10 (b_b + b_c = g*b_cmin + C*RTT resolves to the same
// fixed point with kappa unchanged only for g = 2), showing the model's
// accuracy is tied to the gain actually deployed.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/mishra_model.hpp"

using namespace bbrnash;
using namespace bbrnash::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  print_banner(opts, "Ablation",
               "sensitivity to BBR's in-flight cap (paper assumption 2)");

  const TrialConfig trial = trial_config(opts);
  const std::vector<double> gains =
      opts.fidelity == Fidelity::kQuick
          ? std::vector<double>{2.0}
          : std::vector<double>{1.5, 2.0, 2.5, 3.0};
  const std::vector<double> buffers =
      opts.fidelity == Fidelity::kQuick ? std::vector<double>{5.0}
                                        : std::vector<double>{2.0, 5.0, 10.0};

  // Flatten the (gain x buffer) grid into independent parallel cells; the
  // trials inside a cell run inline and reduce in trial order.
  struct Row {
    double model = 0, sim = 0;
  };
  std::vector<Row> rows(gains.size() * buffers.size());
  for_each_cell(opts, rows.size(), [&](std::size_t c) {
    const double gain = gains[c / buffers.size()];
    const double bdp = buffers[c % buffers.size()];
    const NetworkParams net = make_params(50.0, 40.0, bdp);
    const auto model = two_flow_prediction(net);
    Scenario mix = make_mix_scenario(net, 1, 1);
    mix.bbr_cwnd_gain = gain;
    Row& r = rows[c];
    r.model = model ? to_mbps(model->lambda_bbr) : 0.0;
    r.sim = run_mix_trials(mix, CcKind::kBbr, trial).per_flow_other_mbps;
  });

  Table table({"cwnd_gain", "buffer_bdp", "model_mbps(g=2)", "sim_bbr_mbps",
               "err_pct"});
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const Row& r = rows[c];
    const double err = r.sim > 0 ? 100.0 * (r.model - r.sim) / r.sim : 0.0;
    table.add_row({gains[c / buffers.size()], buffers[c % buffers.size()],
                   r.model, r.sim, err});
  }
  emit(opts, table);
  if (!opts.csv) {
    std::printf(
        "expectation: the g=2 model tracks the g=2.0 rows best; larger gains "
        "raise BBR's share (more in-flight), smaller gains lower it.\n");
  }
  print_parallel_summary(opts);
  return 0;
}
