// Developer tool: trace per-second state of a 1v1 CUBIC/BBR run on the
// production dumbbell. Not part of the shipped benches; used to validate
// CC dynamics.
// Usage: debug_trace [cap_mbps] [rtt_ms] [buf_bdp] [dur_s]
#include <cstdio>
#include <stdexcept>

#include "exp/cli_flags.hpp"
#include "exp/dumbbell.hpp"

using namespace bbrnash;

int main(int argc, char** argv) try {
  const double cap_mbps =
      argc > 1 ? parse_double_strict("cap_mbps", argv[1]) : 50.0;
  const double rtt_ms = argc > 2 ? parse_double_strict("rtt_ms", argv[2]) : 40.0;
  const double buf_bdp =
      argc > 3 ? parse_double_strict("buf_bdp", argv[3]) : 4.0;
  const double dur_s = argc > 4 ? parse_double_strict("dur_s", argv[4]) : 40.0;

  // Flow 0 is CUBIC, flow 1 BBR.
  Scenario scenario =
      make_mix_scenario(make_params(cap_mbps, rtt_ms, buf_bdp), 1, 1);
  scenario.warmup = 0;
  scenario.duration = from_sec(dur_s) + 1;
  scenario.validate();
  Simulator sim;
  Dumbbell db{sim, scenario};
  const auto& link = db.link();
  const auto& cubic = db.sender(0);
  const auto& bbr_flow = db.sender(1);

  std::printf(
      "t cubic_mbps bbr_mbps cubic_cwnd_pk bbr_cwnd_pk bbr_state bbr_btlbw "
      "bbr_rtprop_ms q_pct q_cubic q_bbr retx_c retx_b rtos_c rtos_b\n");
  Bytes last_del[2] = {0, 0};
  for (double t = 1.0; t <= dur_s; t += 1.0) {
    sim.schedule_at(from_sec(t), [&, t] {
      const Bbr& bbr = bbr_flow.cc().get<Bbr>();
      const char* st = "?";
      switch (bbr.state()) {
        case Bbr::State::kStartup: st = "STARTUP"; break;
        case Bbr::State::kDrain: st = "DRAIN"; break;
        case Bbr::State::kProbeBw: st = "PROBEBW"; break;
        case Bbr::State::kProbeRtt: st = "PROBERTT"; break;
      }
      const double d0 = to_mbps(static_cast<double>(cubic.delivered_bytes() - last_del[0]));
      const double d1 = to_mbps(static_cast<double>(bbr_flow.delivered_bytes() - last_del[1]));
      last_del[0] = cubic.delivered_bytes();
      last_del[1] = bbr_flow.delivered_bytes();
      std::printf(
          "%5.0f %7.2f %7.2f %7ld %7ld %-8s %7.2f %7.2f %5.1f %8ld %8ld %5lu %5lu %3lu %3lu\n",
          t, d0, d1, cubic.cc().cwnd() / kDefaultMss,
          bbr_flow.cc().cwnd() / kDefaultMss, st, to_mbps(bbr.btlbw()),
          to_ms(bbr.rtprop()),
          100.0 * static_cast<double>(link.queue().occupied_bytes()) /
              static_cast<double>(scenario.buffer_bytes),
          link.queue().flow_occupancy(0) / 1500,
          link.queue().flow_occupancy(1) / 1500,
          cubic.retransmit_count(), bbr_flow.retransmit_count(),
          cubic.rto_count(), bbr_flow.rto_count());
    });
  }
  sim.run_until(scenario.duration);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "debug_trace: invalid configuration: %s\n", e.what());
  return 2;
}
