// BBR v1 (Cardwell et al., 2016), after
// draft-cardwell-iccrg-bbr-congestion-control-00.
//
// The mechanisms the paper's model rests on all emerge from this state
// machine:
//   * the 2x bandwidth-delay-product in-flight cap (cwnd_gain = 2 in
//     ProbeBW) — the paper's Eq. 7,
//   * the RTprop (min-RTT) estimate that gets inflated by competing CUBIC
//     traffic that never fully drains during ProbeRTT — the paper's RTT+,
//   * ProbeBW gain cycling [1.25, 0.75, 1x6] and the 10-second ProbeRTT
//     cadence (cwnd = 4 packets for ~200 ms).
// Loss is deliberately ignored (the paper's assumption 4: BBRv1 is
// loss-agnostic); only an RTO resets the in-flight conservatively.
#pragma once

#include "cc/congestion_control.hpp"
#include "util/filters.hpp"
#include "util/rng.hpp"

namespace bbrnash {

struct BbrConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double high_gain = 2.0 / 0.6931471805599453;  ///< 2/ln2 ~ 2.885
  double cwnd_gain = 2.0;                        ///< ProbeBW in-flight cap
  double drain_gain = 0.6931471805599453 / 2.0;
  int btlbw_window_rounds = 10;
  TimeNs rtprop_window = from_sec(10);
  TimeNs probe_rtt_interval = from_sec(10);
  TimeNs probe_rtt_duration = from_ms(200);
  Bytes min_pipe_cwnd = 4 * kDefaultMss;
  std::uint64_t seed = 1;  ///< randomizes the initial ProbeBW cycle phase
};

class Bbr {
 public:
  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };

  explicit Bbr(const BbrConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight);
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const { return cwnd_; }
  [[nodiscard]] BytesPerSec pacing_rate() const;
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

  // Introspection (tests, traces, ablations).
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] BytesPerSec btlbw() const { return btlbw_.best(); }
  [[nodiscard]] TimeNs rtprop() const { return rtprop_; }
  [[nodiscard]] Bytes bdp_estimate() const { return bdp(1.0); }
  [[nodiscard]] double pacing_gain() const { return pacing_gain_; }
  [[nodiscard]] std::uint64_t round_count() const { return round_count_; }

  /// Ablation knob (bench_ablation_inflight_cap): overrides the ProbeBW
  /// cwnd gain the paper assumes to be 2.
  void set_cwnd_gain(double gain) { cfg_.cwnd_gain = gain; }

 private:
  static constexpr double kPacingGainCycle[8] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};

  void update_round(const AckEvent& ev);
  void update_btlbw(const AckEvent& ev);
  void update_rtprop(const AckEvent& ev);
  void check_full_pipe(const AckEvent& ev);
  void check_drain_done(const AckEvent& ev);
  void update_probe_bw_cycle(const AckEvent& ev);
  void check_probe_rtt(const AckEvent& ev);
  void enter_probe_bw(TimeNs now);
  void exit_probe_rtt(TimeNs now);
  void update_cwnd(const AckEvent& ev);

  [[nodiscard]] Bytes bdp(double gain) const;
  [[nodiscard]] bool filters_primed() const {
    return !btlbw_.empty() && rtprop_ != kTimeInf;
  }

  BbrConfig cfg_;
  Rng rng_;

  State state_ = State::kStartup;
  double pacing_gain_ = 1.0;
  double cwnd_gain_now_ = 1.0;
  Bytes cwnd_ = 0;

  RoundMaxFilter btlbw_;  ///< max delivery rate over the last rounds
  // RTprop is NOT a sliding-window min: per the draft it is an explicit
  // estimate plus the timestamp of its last adoption. A sample is adopted
  // when it improves the estimate OR when the estimate is older than the
  // filter window ("expired"); the expired flag, sampled before adoption,
  // is what triggers ProbeRTT. A sliding min would silently follow queue
  // growth and ProbeRTT would never fire again.
  TimeNs rtprop_ = kTimeInf;
  TimeNs rtprop_stamp_ = 0;  ///< when the estimate was last adopted
  bool rtprop_expired_ = false;
  bool idle_restart_ = false;

  // Round counting (one round = one delivered cwnd's worth).
  Bytes next_round_delivered_ = 0;
  std::uint64_t round_count_ = 0;
  bool round_start_ = false;

  // Startup full-pipe detection.
  BytesPerSec full_bw_ = 0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  // ProbeBW cycle.
  int cycle_index_ = 0;
  TimeNs cycle_stamp_ = 0;
  bool loss_in_round_ = false;

  // ProbeRTT.
  TimeNs probe_rtt_done_stamp_ = kTimeNone;
  bool probe_rtt_round_done_ = false;
  Bytes prior_cwnd_ = 0;

  // Loss-recovery cwnd modulation (draft §4.2.3.4): BBR is loss-agnostic in
  // its *model*, but during recovery it observes packet conservation for
  // one round and restores the saved cwnd on exit. Without this, mass-loss
  // rounds (e.g. after an RTprop re-estimate doubles the window into a full
  // buffer) turn into retransmit storms.
  bool in_loss_recovery_ = false;
  bool packet_conservation_ = false;
  Bytes saved_cwnd_ = 0;
  std::uint64_t recovery_start_round_ = 0;
};

}  // namespace bbrnash
