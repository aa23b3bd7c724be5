// BBR v2 (simplified), after the IETF-104 iccrg update by Cardwell et al.
//
// The paper uses BBRv2 only for the qualitative claims in §4.2/§4.6:
// "BBRv2 behaves like BBR, but because it has a variable cwnd, it is able
// to react to packet loss", hence it is less aggressive against CUBIC and
// its Nash Equilibria contain more CUBIC flows (Fig. 11). This class keeps
// BBRv1's filters/state machine and adds the loss-adaptive in-flight
// ceiling that produces exactly that behaviour:
//   * inflight_hi — long-term ceiling, set to the in-flight level at which
//     a loss round occurred and probed back up multiplicatively in
//     loss-free rounds;
//   * inflight_lo — short-term bound, beta=0.7 multiplicative decrease on
//     each loss round (BBRv2's beta), released after a full cycle without
//     loss.
// Full BBRv2 (ECN support, PROBE_UP/DOWN/CRUISE/REFILL sub-states, loss
// thresholds at 2%) is intentionally out of scope; DESIGN.md records the
// substitution.
#pragma once

#include "cc/congestion_control.hpp"
#include "util/filters.hpp"
#include "util/rng.hpp"

namespace bbrnash {

struct BbrV2Config {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  double high_gain = 2.0 / 0.6931471805599453;
  double cwnd_gain = 2.0;
  double drain_gain = 0.6931471805599453 / 2.0;
  double beta = 0.7;              ///< inflight_lo multiplicative decrease
  double probe_up_factor = 1.08;  ///< inflight_hi growth per loss-free round
  int btlbw_window_rounds = 10;
  TimeNs rtprop_window = from_sec(10);
  TimeNs probe_rtt_interval = from_sec(10);
  /// BBRv2 dwells at 0.75*BDP for a fraction of the interval instead of
  /// collapsing to 4 packets; we keep the v1 drain for model comparability
  /// but shorten it.
  TimeNs probe_rtt_duration = from_ms(200);
  Bytes min_pipe_cwnd = 4 * kDefaultMss;
  std::uint64_t seed = 1;
};

class BbrV2 {
 public:
  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };

  explicit BbrV2(const BbrV2Config& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight);
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const;
  [[nodiscard]] BytesPerSec pacing_rate() const;
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] BytesPerSec btlbw() const { return btlbw_.best(); }
  [[nodiscard]] TimeNs rtprop() const { return rtprop_; }
  [[nodiscard]] Bytes inflight_hi() const { return inflight_hi_; }
  [[nodiscard]] Bytes inflight_lo() const { return inflight_lo_; }

 private:
  static constexpr double kPacingGainCycle[8] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
  static constexpr Bytes kInfBytes = INT64_MAX / 4;

  void update_round(const AckEvent& ev);
  void update_filters(const AckEvent& ev);
  void advance_state(const AckEvent& ev);
  void enter_probe_bw(TimeNs now);
  void update_bounds_on_round(const AckEvent& ev);

  [[nodiscard]] Bytes bdp(double gain) const;
  [[nodiscard]] bool filters_primed() const {
    return !btlbw_.empty() && rtprop_ != kTimeInf;
  }

  BbrV2Config cfg_;
  Rng rng_;

  State state_ = State::kStartup;
  double pacing_gain_ = 1.0;
  double cwnd_gain_now_ = 1.0;
  Bytes cwnd_raw_ = 0;

  RoundMaxFilter btlbw_;  ///< max delivery rate over the last rounds
  // Explicit RTprop estimate + adoption stamp (see Bbr for why this must
  // not be a sliding-window min).
  TimeNs rtprop_ = kTimeInf;
  TimeNs rtprop_stamp_ = 0;
  bool rtprop_expired_ = false;

  Bytes next_round_delivered_ = 0;
  std::uint64_t round_count_ = 0;
  bool round_start_ = false;

  BytesPerSec full_bw_ = 0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  int cycle_index_ = 0;
  TimeNs cycle_stamp_ = 0;
  std::uint64_t cycles_completed_ = 0;

  // Loss-adaptive inflight model (the v2 essence).
  Bytes inflight_hi_ = kInfBytes;
  Bytes inflight_lo_ = kInfBytes;
  bool loss_in_round_ = false;
  std::uint64_t lo_release_cycle_ = 0;

  TimeNs probe_rtt_done_stamp_ = kTimeNone;
  bool probe_rtt_round_done_ = false;
  Bytes prior_cwnd_ = 0;
};

}  // namespace bbrnash
