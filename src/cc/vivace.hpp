// PCC Vivace (Dong et al., NSDI 2018) — online-learning rate control.
//
// Vivace divides time into monitor intervals (MIs) of about one RTT. In
// each probing epoch it tests rate r(1+eps) for one MI and r(1-eps) for the
// next, computes the utility
//
//     U(x) = x^0.9 - b * x * d(RTT)/dt - c * x * L
//
// (x = goodput in Mbps, b = 900, c = 11.35, L = loss fraction — the paper's
// default coefficients) for both, and moves the rate in the direction of
// higher utility with a confidence-amplified gradient step.
//
// Implementation notes (vs the reference UDP implementation):
//   * Measurements are attributed to the MI in which a packet was *sent*
//     (send time reconstructed as ack_time - rtt). Without this, the one-
//     RTT ack lag makes each MI observe the other arm's rate and the
//     gradient sign inverts.
//   * Each probe epoch is up-MI, down-MI, then a settle-MI at the decided
//     base rate, during which the two buckets finish collecting acks.
//   * The RTT gradient is a least-squares slope with a deadband, like the
//     reference implementation's latency filters.
//
// The paper uses Vivace in §4.2 (Fig. 7) as a post-BBR CCA that DOES take a
// disproportionate bandwidth share against CUBIC at small flow counts, so a
// mixed Nash Equilibrium is expected for it too.
#pragma once

#include "cc/congestion_control.hpp"

namespace bbrnash {

struct VivaceConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double utility_exponent = 0.9;
  double latency_coeff = 150.0;   ///< b
  double loss_coeff = 11.35;      ///< c
  double probe_epsilon = 0.05;    ///< +/- 5% rate probes
  /// Latency-gradient deadband (s/s): inflation below this is measurement
  /// noise (serialization quanta, ack jitter) and is ignored.
  double gradient_deadband = 0.01;
  double min_rate_mbps = 1.0;
  double max_step_fraction = 0.25;  ///< cap a single step at 25% of rate
  double base_step_mbps = 0.25;     ///< theta0, scaled by confidence
  int max_confidence = 8;
  /// Loss fraction above which the rate snaps back to measured goodput.
  /// Only applied when the probe pair carried enough packets for the
  /// fraction to be meaningful.
  double loss_brake = 0.30;
  int loss_brake_min_packets = 30;
};

class Vivace {
 public:
  explicit Vivace(const VivaceConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight);
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const;
  [[nodiscard]] BytesPerSec pacing_rate() const;
  [[nodiscard]] int pacing_burst_segments() const { return 1; }

  [[nodiscard]] double rate_mbps() const { return rate_mbps_; }

 private:
  enum class Phase { kSlowStart, kUp, kDown, kSettle };

  /// Measurement bucket for one MI, keyed by packet *send* time.
  struct Bucket {
    TimeNs start = kTimeNone;
    TimeNs end = kTimeNone;  ///< exclusive
    double rate_mbps = 0.0;
    Bytes acked = 0;
    Bytes lost = 0;
    // Least-squares accumulators for RTT-vs-send-time slope.
    double n = 0, st = 0, sy = 0, stt = 0, sty = 0;

    [[nodiscard]] bool contains(TimeNs t) const {
      return start != kTimeNone && t >= start && t < end;
    }
    void add_rtt(TimeNs t_send, TimeNs rtt) {
      const double t = static_cast<double>(t_send - start) * 1e-9;
      const double y = static_cast<double>(rtt) * 1e-9;
      n += 1;
      st += t;
      sy += y;
      stt += t * t;
      sty += t * y;
    }
  };

  [[nodiscard]] TimeNs mi_duration(double rate) const;
  [[nodiscard]] double gradient(const Bucket& b) const;
  [[nodiscard]] double goodput_mbps(const Bucket& b) const;
  [[nodiscard]] double utility(const Bucket& b, double loss_fraction) const;
  void attribute_ack(const AckEvent& ev);
  void decide(TimeNs now);
  void step_rate(double grad_direction);
  void start_epoch(TimeNs now);

  VivaceConfig cfg_;
  double rate_mbps_ = 0.0;
  double pacing_now_mbps_ = 0.0;
  TimeNs srtt_ = kTimeNone;

  Phase phase_ = Phase::kSlowStart;
  TimeNs phase_start_ = kTimeNone;
  TimeNs phase_end_ = kTimeNone;

  Bucket up_;
  Bucket down_;
  Bucket ss_;  ///< slow-start measurement bucket

  int streak_ = 0;
  int last_direction_ = 0;
  double last_utility_ = 0.0;
  bool has_last_utility_ = false;
};

}  // namespace bbrnash
