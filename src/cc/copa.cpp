#include "cc/copa.hpp"

#include <algorithm>

namespace bbrnash {

Copa::Copa(const CopaConfig& cfg)
    : cfg_(cfg),
      min_rtt_(FilterKind::kMin, cfg.min_rtt_window, kTimeInf),
      standing_rtt_(FilterKind::kMin, from_ms(50), kTimeInf) {}

void Copa::on_start(TimeNs now) {
  (void)now;
  cwnd_ = cfg_.initial_cwnd;
}

TimeNs Copa::queuing_delay() const {
  const TimeNs standing = standing_rtt_.best();
  const TimeNs base = min_rtt_.best();
  if (standing == kTimeInf || base == kTimeInf) return 0;
  return std::max<TimeNs>(0, standing - base);
}

BytesPerSec Copa::pacing_rate() const {
  // Copa paces at 2*cwnd/RTTstanding to smooth bursts.
  const TimeNs standing = standing_rtt_.best();
  if (standing == kTimeInf || standing <= 0) return kNoPacing;
  return 2.0 * static_cast<double>(cwnd_) / to_sec(standing);
}

void Copa::on_ack(const AckEvent& ev) {
  if (ev.rtt == kTimeNone) return;

  srtt_ = srtt_ == kTimeNone ? ev.rtt : (7 * srtt_ + ev.rtt) / 8;
  min_rtt_.update(ev.now, ev.rtt);
  // Standing window is srtt/2 — tracks the *recent* low RTT so that
  // self-induced queueing from the last probe does not pollute d_q.
  standing_rtt_.set_window(std::max<TimeNs>(srtt_ / 2, from_ms(1)));
  standing_rtt_.update(ev.now, ev.rtt);

  const TimeNs d_q = queuing_delay();
  const double cwnd_pkts =
      static_cast<double>(cwnd_) / static_cast<double>(cfg_.mss);

  // Target rate 1/(delta*d_q) packets/s; infinite when the queue is empty.
  double target_rate_pps = 1e18;
  if (d_q > 0) target_rate_pps = 1.0 / (cfg_.delta * to_sec(d_q));
  const TimeNs standing = standing_rtt_.best();
  const double current_rate_pps =
      standing > 0 && standing != kTimeInf ? cwnd_pkts / to_sec(standing) : 0.0;

  if (slow_start_) {
    if (current_rate_pps < target_rate_pps) {
      cwnd_ += ev.acked_bytes;  // double per RTT
      return;
    }
    slow_start_ = false;
  }

  update_velocity(ev.now);

  const double step_pkts = velocity_ / (cfg_.delta * cwnd_pkts);
  const auto step_bytes = static_cast<Bytes>(
      step_pkts * static_cast<double>(cfg_.mss) *
      (static_cast<double>(ev.acked_bytes) / static_cast<double>(cfg_.mss)));
  if (current_rate_pps <= target_rate_pps) {
    cwnd_ += std::max<Bytes>(step_bytes, 1);
  } else {
    cwnd_ -= std::max<Bytes>(step_bytes, 1);
  }
  cwnd_ = std::max(cwnd_, cfg_.min_cwnd);
}

void Copa::update_velocity(TimeNs now) {
  if (srtt_ == kTimeNone) return;
  if (now - last_direction_check_ < srtt_) return;

  const int dir = cwnd_ > cwnd_at_last_check_   ? 1
                  : cwnd_ < cwnd_at_last_check_ ? -1
                                                : 0;
  if (dir != 0 && dir == direction_) {
    ++same_direction_rtts_;
    // Velocity doubles only after 3 consistent RTTs (per the Copa paper).
    if (same_direction_rtts_ >= 3) {
      velocity_ = std::min(velocity_ * 2.0, cfg_.max_velocity);
    }
  } else {
    velocity_ = 1.0;
    same_direction_rtts_ = 0;
  }
  direction_ = dir;
  cwnd_at_last_check_ = cwnd_;
  last_direction_check_ = now;
}

void Copa::on_congestion_event(const LossEvent& ev) {
  (void)ev;
  // Default-mode Copa reacts to loss only via the delay signal; a batch
  // loss usually coincides with a delay spike which the target tracks.
  // (Competitive-mode delta adaptation is out of scope; see header.)
}

void Copa::on_rto(TimeNs now) {
  (void)now;
  cwnd_ = cfg_.min_cwnd;
  velocity_ = 1.0;
  same_direction_rtts_ = 0;
  slow_start_ = true;
}

}  // namespace bbrnash
