// related_work_games: an older congestion-control game the paper cites,
// replayed with this library.
//
//   (1) NewReno vs CUBIC: the transition the paper's introduction uses as
//       its precedent — CUBIC wins at every distribution on a high-BDP
//       path, so unlike BBR it had a strictly dominant incentive.
//
//   usage: related_work_games [capacity_mbps] [rtt_ms] [buffer_bdp]
#include <cstdio>
#include <stdexcept>

#include "exp/cli_flags.hpp"
#include "exp/scenario_runner.hpp"
#include "exp/sweeps.hpp"
#include "model/nash.hpp"

using namespace bbrnash;

namespace {

void two_by_two_game(const NetworkParams& net, CcKind a, CcKind b,
                     const char* name_a, const char* name_b) {
  // Payoffs for each of the 3 distributions of 2 flows over {a, b}.
  TrialConfig cfg;
  cfg.duration = from_sec(40);
  cfg.warmup = from_sec(10);
  cfg.trials = 1;

  const MixOutcome both_a = run_mix_trials(net, 0, 2, a, cfg);
  const MixOutcome both_b = run_mix_trials(net, 0, 2, b, cfg);

  Scenario mixed = make_mix_scenario(net, 0, 0);
  mixed.flows.push_back({a, net.base_rtt});
  mixed.flows.push_back({b, net.base_rtt});
  mixed.duration = cfg.duration;
  mixed.warmup = cfg.warmup;
  const RunResult r = run_scenario(mixed);
  const double a_in_mix = to_mbps(r.flows[0].stats.goodput_bps);
  const double b_in_mix = to_mbps(r.flows[1].stats.goodput_bps);

  std::printf("  payoff matrix (row = your choice, column = rival's):\n");
  std::printf("              %12s %12s\n", name_a, name_b);
  std::printf("  %-10s %9.2f    %9.2f\n", name_a,
              both_a.per_flow_other_mbps, a_in_mix);
  std::printf("  %-10s %9.2f    %9.2f\n", name_b, b_in_mix,
              both_b.per_flow_other_mbps);

  const bool a_dominant =
      both_a.per_flow_other_mbps >= b_in_mix && a_in_mix >= both_b.per_flow_other_mbps;
  const bool b_dominant =
      both_b.per_flow_other_mbps >= a_in_mix && b_in_mix >= both_a.per_flow_other_mbps;
  if (a_dominant && !b_dominant) {
    std::printf("  -> %s dominates: everyone plays %s at equilibrium.\n\n",
                name_a, name_a);
  } else if (b_dominant && !a_dominant) {
    std::printf("  -> %s dominates: everyone plays %s at equilibrium.\n\n",
                name_b, name_b);
  } else {
    std::printf("  -> no dominant strategy: a mixed population can be "
                "stable.\n\n");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const double cap =
      argc > 1 ? parse_double_strict("cap", argv[1]) : 50.0;
  const double rtt =
      argc > 2 ? parse_double_strict("rtt", argv[2]) : 40.0;
  const double bdp =
      argc > 3 ? parse_double_strict("bdp", argv[3]) : 4.0;
  const NetworkParams net = make_params(cap, rtt, bdp);

  std::printf("Historical congestion-control games on %.0f Mbps / %.0f ms / "
              "%.0f BDP (per-flow Mbps)\n\n",
              cap, rtt, bdp);

  std::printf("(1) NewReno vs CUBIC — the precedent the paper starts from:\n");
  two_by_two_game(net, CcKind::kReno, CcKind::kCubic, "reno", "cubic");

  std::printf(
      "(2) CUBIC vs BBR — the paper's game: see bench_fig05/fig09 for the\n"
      "    full population sweeps; unlike (1), neither strategy\n"
      "    dominates and the population settles at a mixed equilibrium.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "related_work_games: invalid configuration: %s\n", e.what());
  return 2;
}
