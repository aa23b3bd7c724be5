// Developer tool: trace per-second state of a 1v1 CUBIC/BBR run.
// Not part of the shipped benches; used to validate CC dynamics.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cc/cc_variant.hpp"
#include "exp/cli_flags.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "sim/simulator.hpp"

using namespace bbrnash;

int main(int argc, char** argv) try {
  const double cap_mbps =
      argc > 1 ? parse_double_strict("cap_mbps", argv[1]) : 50.0;
  const double rtt_ms = argc > 2 ? parse_double_strict("rtt_ms", argv[2]) : 40.0;
  const double buf_bdp =
      argc > 3 ? parse_double_strict("buf_bdp", argv[3]) : 4.0;
  const double dur_s = argc > 4 ? parse_double_strict("dur_s", argv[4]) : 40.0;

  Simulator sim;
  const BytesPerSec cap = mbps(cap_mbps);
  const TimeNs rtt = from_ms(rtt_ms);
  const auto buffer = static_cast<Bytes>(buf_bdp * cap * to_sec(rtt));
  BottleneckLink link{sim, cap, buffer, 2};

  struct Endpoint {
    std::unique_ptr<Sender> snd;
    std::unique_ptr<Receiver> rcv;
    std::unique_ptr<DelayLine<Packet>> fwd;
    std::unique_ptr<DelayLine<Ack>> rev;
  };
  std::vector<Endpoint> eps(2);

  for (FlowId i = 0; i < 2; ++i) {
    auto& ep = eps[i];
    ep.rcv = std::make_unique<Receiver>(i);
    // The reverse half takes the odd nanosecond, as in execute_scenario.
    ep.fwd = std::make_unique<DelayLine<Packet>>(sim, rtt / 2);
    ep.rev = std::make_unique<DelayLine<Ack>>(sim, rtt - rtt / 2);
    ep.snd = std::make_unique<Sender>(
        sim, i, SenderConfig{},
        make_cc_variant(i == 0 ? CcKind::kCubic : CcKind::kBbr, CcConfig{}),
        [&link](const Packet& p) { link.send(p); });
    ep.fwd->set_sink([&eps, i](const Packet& p) { eps[i].rcv->on_packet(p, 0); });
    ep.rcv->set_ack_sink([&eps, i](const Ack& a) { eps[i].rev->send(a); });
    ep.rev->set_sink([&eps, i](const Ack& a) { eps[i].snd->on_ack(a); });
  }
  link.set_sink([&eps](const Packet& p) { eps[p.flow].fwd->send(p); });

  eps[0].snd->start(0);
  eps[1].snd->start(from_ms(50));

  std::printf(
      "t cubic_mbps bbr_mbps cubic_cwnd_pk bbr_cwnd_pk bbr_state bbr_btlbw "
      "bbr_rtprop_ms q_pct q_cubic q_bbr retx_c retx_b rtos_c rtos_b\n");
  Bytes last_del[2] = {0, 0};
  for (double t = 1.0; t <= dur_s; t += 1.0) {
    sim.schedule_at(from_sec(t), [&, t] {
      const Bbr& bbr = eps[1].snd->cc().get<Bbr>();
      const char* st = "?";
      switch (bbr.state()) {
        case Bbr::State::kStartup: st = "STARTUP"; break;
        case Bbr::State::kDrain: st = "DRAIN"; break;
        case Bbr::State::kProbeBw: st = "PROBEBW"; break;
        case Bbr::State::kProbeRtt: st = "PROBERTT"; break;
      }
      const double d0 = to_mbps(static_cast<double>(eps[0].snd->delivered_bytes() - last_del[0]));
      const double d1 = to_mbps(static_cast<double>(eps[1].snd->delivered_bytes() - last_del[1]));
      last_del[0] = eps[0].snd->delivered_bytes();
      last_del[1] = eps[1].snd->delivered_bytes();
      std::printf(
          "%5.0f %7.2f %7.2f %7ld %7ld %-8s %7.2f %7.2f %5.1f %8ld %8ld %5lu %5lu %3lu %3lu\n",
          t, d0, d1, eps[0].snd->cc().cwnd() / kDefaultMss,
          eps[1].snd->cc().cwnd() / kDefaultMss, st, to_mbps(bbr.btlbw()),
          to_ms(bbr.rtprop()),
          100.0 * static_cast<double>(link.queue().occupied_bytes()) /
              static_cast<double>(buffer),
          link.queue().flow_occupancy(0) / 1500,
          link.queue().flow_occupancy(1) / 1500,
          eps[0].snd->retransmit_count(), eps[1].snd->retransmit_count(),
          eps[0].snd->rto_count(), eps[1].snd->rto_count());
    });
  }
  sim.run_until(from_sec(dur_s) + 1);
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "debug_trace: invalid configuration: %s\n", e.what());
  return 2;
}
