// TCP Vegas (Brakmo & Peterson, 1995) — the classic delay-based algorithm.
//
// Vegas compares the expected rate (cwnd / base_rtt) with the actual rate
// (cwnd / observed_rtt) once per RTT. If the difference (in packets of
// standing queue) is below alpha it grows the window by one MSS; above
// beta it shrinks by one MSS; in between it holds.
//
// Included for the related-work corner of the paper (§6 cites the
// Reno-vs-Vegas Nash-equilibrium analyses of Akella et al. and
// Trinh & Molnár); the related_work_games example reproduces that game
// with this implementation.
#pragma once

#include "cc/congestion_control.hpp"

namespace bbrnash {

struct VegasConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double alpha = 2.0;  ///< lower standing-queue threshold (packets)
  double beta = 4.0;   ///< upper standing-queue threshold (packets)
  Bytes min_cwnd = 2 * kDefaultMss;
};

class Vegas {
 public:
  explicit Vegas(const VegasConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs, Bytes, Bytes) {}
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const { return cwnd_; }
  [[nodiscard]] BytesPerSec pacing_rate() const { return kNoPacing; }
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

  [[nodiscard]] bool in_slow_start() const { return slow_start_; }
  [[nodiscard]] TimeNs base_rtt() const { return base_rtt_; }

 private:
  VegasConfig cfg_;
  Bytes cwnd_ = 0;
  bool slow_start_ = true;

  TimeNs base_rtt_ = kTimeInf;
  // Per-round bookkeeping (rounds delimited by delivery counts).
  Bytes next_round_delivered_ = 0;
  TimeNs round_min_rtt_ = kTimeInf;
  bool grow_this_round_ = true;  ///< Vegas doubles every *other* round in SS
};

}  // namespace bbrnash
