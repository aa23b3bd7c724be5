// TCP CUBIC (Ha, Rhee & Xu, 2008; RFC 9438).
//
// The property the paper's model depends on: after a loss, the window
// shrinks to beta = 0.7 of W_max (the paper writes beta_cubic = 0.3 for the
// decrease amount), and the window then grows as a cubic of elapsed time
// anchored at W_max. Parameters match the Linux kernel: C = 0.4, beta = 0.7,
// fast convergence and the TCP-friendly (Reno-emulation) region enabled.
#pragma once

#include "cc/congestion_control.hpp"

namespace bbrnash {

struct CubicConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double c = 0.4;          ///< cubic scaling constant (segments/s^3)
  double beta = 0.7;       ///< multiplicative-decrease factor
  bool fast_convergence = true;
  bool tcp_friendly = true;
  /// HyStart (RFC 9406 flavour): leave slow start when the per-round
  /// minimum RTT rises noticeably, instead of blasting until loss. Linux
  /// ships it enabled; here it defaults OFF as a calibration choice — in
  /// this simulator it removes the early loss episodes that BBR exploits
  /// to claim queue share, pushing the CUBIC/BBR split further from the
  /// paper's testbed measurements. Enable for ablations.
  bool hystart = false;
  TimeNs hystart_min_eta = from_ms(4);
  TimeNs hystart_max_eta = from_ms(16);
  Bytes min_cwnd = 2 * kDefaultMss;
};

class Cubic {
 public:
  explicit Cubic(const CubicConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs, Bytes, Bytes) {}
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const { return cwnd_; }
  [[nodiscard]] BytesPerSec pacing_rate() const { return kNoPacing; }
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

  // Introspection for tests.
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }
  [[nodiscard]] double w_max_segments() const { return w_max_; }
  [[nodiscard]] double k_seconds() const { return k_; }

 private:
  [[nodiscard]] double segments(Bytes b) const {
    return static_cast<double>(b) / static_cast<double>(cfg_.mss);
  }
  [[nodiscard]] Bytes bytes_of(double segs) const {
    return static_cast<Bytes>(segs * static_cast<double>(cfg_.mss));
  }
  void cubic_growth(const AckEvent& ev);

  CubicConfig cfg_;
  Bytes cwnd_ = 0;
  Bytes ssthresh_ = 0;

  // Cubic epoch state (units: segments and seconds, as in the RFC).
  double w_max_ = 0.0;
  double k_ = 0.0;
  TimeNs epoch_start_ = kTimeNone;
  double w_est_ = 0.0;   ///< Reno-emulation window (TCP-friendly region)
  TimeNs last_srtt_ = kTimeNone;

  // HyStart per-round RTT tracking (rounds delimited by delivery counts).
  void hystart_update(const AckEvent& ev);
  Bytes next_round_delivered_ = 0;
  TimeNs round_min_rtt_ = kTimeInf;
  TimeNs last_round_min_rtt_ = kTimeInf;
  Bytes ssthresh_cap_pending_ = 0;
};

}  // namespace bbrnash
