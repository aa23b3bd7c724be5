// Developer tool: one-shot mix measurement vs model bounds.
// Usage: debug_mix <cap_mbps> <rtt_ms> <buf_bdp> <n_cubic> <n_other> [cc] [dur_s] [trials]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "exp/cli_flags.hpp"
#include "exp/sweeps.hpp"
#include "model/mishra_model.hpp"

using namespace bbrnash;

int main(int argc, char** argv) try {
  const double cap = argc > 1 ? parse_double_strict("cap_mbps", argv[1]) : 100.0;
  const double rtt = argc > 2 ? parse_double_strict("rtt_ms", argv[2]) : 40.0;
  const double bdp = argc > 3 ? parse_double_strict("buf_bdp", argv[3]) : 3.0;
  const int nc = argc > 4 ? parse_int_strict("n_cubic", argv[4]) : 5;
  const int nb = argc > 5 ? parse_int_strict("n_other", argv[5]) : 5;
  const auto kind = parse_cc_kind(argc > 6 ? argv[6] : "bbr");
  if (!kind) {
    throw std::invalid_argument{"unknown cc '" + std::string{argv[6]} + "'"};
  }
  const double dur = argc > 7 ? parse_double_strict("dur_s", argv[7]) : 60.0;
  const int trials = argc > 8 ? parse_int_strict("trials", argv[8]) : 1;

  const NetworkParams net = make_params(cap, rtt, bdp);
  TrialConfig cfg;
  cfg.duration = from_sec(dur);
  cfg.warmup = from_sec(dur / 5);
  cfg.trials = trials;
  const MixOutcome m = run_mix_trials(net, nc, nb, *kind, cfg);

  std::printf("sim: per-flow cubic %.2f Mbps, other %.2f Mbps | util %.3f "
              "qdelay %.1f ms | b_c avg %.0f kB min %.0f kB, b_other %.0f kB\n",
              m.per_flow_cubic_mbps, m.per_flow_other_mbps,
              m.link_utilization, m.avg_queue_delay_ms,
              m.cubic_buffer_avg / 1e3, m.cubic_buffer_min / 1e3,
              m.noncubic_buffer_avg / 1e3);

  if (nc >= 1 && nb >= 1) {
    const auto iv = prediction_interval(net, nc, nb);
    if (iv) {
      std::printf("model: per-flow other sync %.2f / desync %.2f Mbps, "
                  "cubic sync %.2f / desync %.2f Mbps, b_b sync %.0f kB\n",
                  to_mbps(iv->sync.per_flow_bbr),
                  to_mbps(iv->desync.per_flow_bbr),
                  to_mbps(iv->sync.per_flow_cubic),
                  to_mbps(iv->desync.per_flow_cubic),
                  iv->sync.aggregate.bbr_buffer_bytes / 1e3);
    }
  }
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "debug_mix: invalid configuration: %s\n", e.what());
  return 2;
}
