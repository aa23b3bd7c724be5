// Copa (Arun & Balakrishnan, NSDI 2018) — delay-based congestion control.
//
// Copa targets a sending rate of 1/(delta * d_q) packets per second, where
// d_q is the measured queuing delay (RTTstanding - RTTmin). The window
// moves toward the target by v/(delta * cwnd) packets per ACK, where the
// velocity v doubles after the window has moved in the same direction for
// three consecutive RTTs.
//
// The paper (§4.2, Fig. 7) uses Copa as the example of a post-BBR CCA that
// does NOT grab a disproportionate share against CUBIC — a delay-based
// algorithm backs off as loss-based flows fill the buffer — so no Nash
// Equilibrium mixture is expected. We implement Copa's default mode with a
// fixed delta (no TCP-competitive mode switching), which is the behaviour
// that exhibits exactly that property.
#pragma once

#include "cc/congestion_control.hpp"
#include "util/filters.hpp"

namespace bbrnash {

struct CopaConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double delta = 0.5;              ///< default-mode delta (1/(2) pkt tradeoff)
  /// Effectively "forever": with a short window the propagation estimate
  /// drifts up to the standing queue level and d_q collapses to ~0, turning
  /// Copa into a rate-blaster. Reference Copa keeps a very long-lived
  /// RTTmin; our paths have a fixed propagation delay, so an hour is
  /// equivalent to forever.
  TimeNs min_rtt_window = from_sec(3600);
  Bytes min_cwnd = 4 * kDefaultMss;
  double max_velocity = 65536.0;
};

class Copa {
 public:
  explicit Copa(const CopaConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs, Bytes, Bytes) {}
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const { return cwnd_; }
  [[nodiscard]] BytesPerSec pacing_rate() const;
  [[nodiscard]] int pacing_burst_segments() const { return 1; }

  [[nodiscard]] double velocity() const { return velocity_; }
  [[nodiscard]] TimeNs queuing_delay() const;

 private:
  void update_velocity(TimeNs now);

  CopaConfig cfg_;
  Bytes cwnd_ = 0;
  double velocity_ = 1.0;

  WindowedFilter<TimeNs> min_rtt_;       ///< long-window propagation estimate
  WindowedFilter<TimeNs> standing_rtt_;  ///< srtt/2-window standing RTT
  TimeNs srtt_ = kTimeNone;

  bool slow_start_ = true;
  // Direction tracking, evaluated once per RTT.
  TimeNs last_direction_check_ = 0;
  Bytes cwnd_at_last_check_ = 0;
  int direction_ = 0;  // +1 up, -1 down, 0 none
  int same_direction_rtts_ = 0;
};

}  // namespace bbrnash
