#include "cc/bbrv2.hpp"

#include <algorithm>

namespace bbrnash {

BbrV2::BbrV2(const BbrV2Config& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      btlbw_(cfg.btlbw_window_rounds) {}

void BbrV2::on_start(TimeNs now) {
  cwnd_raw_ = cfg_.initial_cwnd;
  state_ = State::kStartup;
  pacing_gain_ = cfg_.high_gain;
  cwnd_gain_now_ = cfg_.high_gain;
  rtprop_stamp_ = now;
}

Bytes BbrV2::bdp(double gain) const {
  if (!filters_primed()) return cfg_.initial_cwnd;
  return static_cast<Bytes>(gain * btlbw_.best() * to_sec(rtprop_));
}

Bytes BbrV2::cwnd() const {
  if (state_ == State::kProbeRtt) return cfg_.min_pipe_cwnd;
  Bytes w = cwnd_raw_;
  w = std::min(w, inflight_hi_);
  w = std::min(w, inflight_lo_);
  return std::max(w, cfg_.min_pipe_cwnd);
}

BytesPerSec BbrV2::pacing_rate() const {
  if (!filters_primed()) return kNoPacing;
  return pacing_gain_ * btlbw_.best();
}

void BbrV2::on_ack(const AckEvent& ev) {
  update_round(ev);
  update_filters(ev);
  advance_state(ev);
  if (round_start_) update_bounds_on_round(ev);

  // Raw window tracks the v1-style target; the loss bounds clamp it.
  const Bytes target = std::max(bdp(cwnd_gain_now_), cfg_.min_pipe_cwnd);
  if (state_ == State::kProbeRtt) return;
  if (filled_pipe_) {
    cwnd_raw_ = cwnd_raw_ < target
                    ? std::min(cwnd_raw_ + ev.acked_bytes, target)
                    : target;
  } else {
    cwnd_raw_ = std::max(cwnd_raw_, std::min(cwnd_raw_ + ev.acked_bytes, target));
  }
}

void BbrV2::update_round(const AckEvent& ev) {
  round_start_ = false;
  if (ev.prior_delivered >= next_round_delivered_) {
    next_round_delivered_ = ev.delivered;
    ++round_count_;
    round_start_ = true;
  }
}

void BbrV2::update_filters(const AckEvent& ev) {
  if (ev.delivery_rate > 0 &&
      (!ev.rate_app_limited || ev.delivery_rate >= btlbw_.best())) {
    btlbw_.update(round_count_, ev.delivery_rate);
  }
  rtprop_expired_ = ev.now > rtprop_stamp_ + cfg_.rtprop_window;
  if (ev.rtt != kTimeNone && (ev.rtt <= rtprop_ || rtprop_expired_)) {
    rtprop_ = ev.rtt;
    rtprop_stamp_ = ev.now;
  }
}

void BbrV2::advance_state(const AckEvent& ev) {
  // Startup / full-pipe detection (identical to v1, but loss also ends
  // startup — BBRv2 exits STARTUP on loss rounds).
  if (!filled_pipe_ && round_start_) {
    if (btlbw_.best() >= full_bw_ * 1.25) {
      full_bw_ = btlbw_.best();
      full_bw_count_ = 0;
    } else if (++full_bw_count_ >= 3) {
      filled_pipe_ = true;
    }
    if (loss_in_round_ && inflight_hi_ != kInfBytes) filled_pipe_ = true;
    if (filled_pipe_ && state_ == State::kStartup) {
      state_ = State::kDrain;
      pacing_gain_ = cfg_.drain_gain;
      cwnd_gain_now_ = cfg_.high_gain;
    }
  }
  if (state_ == State::kDrain && ev.inflight <= bdp(1.0)) {
    enter_probe_bw(ev.now);
  }
  if (state_ == State::kProbeBw) {
    const TimeNs rtprop = rtprop_ == kTimeInf ? from_ms(10) : rtprop_;
    const bool elapsed = ev.now - cycle_stamp_ > rtprop;
    const double gain = kPacingGainCycle[cycle_index_];
    bool advance = false;
    // bbrnash-lint: allow(float-equality) -- exact-match dispatch on gain
    // values read verbatim from kPacingGainCycle; never computed.
    if (gain == 1.25) {
      advance = elapsed && (loss_in_round_ || ev.inflight >= bdp(1.25));
      // bbrnash-lint: allow(float-equality) -- same exact-table dispatch.
    } else if (gain == 0.75) {
      advance = elapsed || ev.inflight <= bdp(1.0);
    } else {
      advance = elapsed;
    }
    if (advance) {
      cycle_index_ = (cycle_index_ + 1) % 8;
      if (cycle_index_ == 0) ++cycles_completed_;
      pacing_gain_ = kPacingGainCycle[cycle_index_];
      cycle_stamp_ = ev.now;
    }
  }
  // ProbeRTT entry/exit (v1 cadence).
  if (state_ != State::kProbeRtt && rtprop_expired_) {
    state_ = State::kProbeRtt;
    prior_cwnd_ = cwnd_raw_;
    pacing_gain_ = 1.0;
    cwnd_gain_now_ = 1.0;
    probe_rtt_done_stamp_ = kTimeNone;
  }
  if (state_ == State::kProbeRtt) {
    if (probe_rtt_done_stamp_ == kTimeNone &&
        ev.inflight <= cfg_.min_pipe_cwnd) {
      probe_rtt_done_stamp_ = ev.now + cfg_.probe_rtt_duration;
      probe_rtt_round_done_ = false;
      next_round_delivered_ = ev.delivered;
    } else if (probe_rtt_done_stamp_ != kTimeNone) {
      if (round_start_) probe_rtt_round_done_ = true;
      if (probe_rtt_round_done_ && ev.now >= probe_rtt_done_stamp_) {
        rtprop_stamp_ = ev.now;
        cwnd_raw_ = std::max(cwnd_raw_, prior_cwnd_);
        if (filled_pipe_) {
          enter_probe_bw(ev.now);
        } else {
          state_ = State::kStartup;
          pacing_gain_ = cfg_.high_gain;
          cwnd_gain_now_ = cfg_.high_gain;
        }
      }
    }
  }
}

void BbrV2::enter_probe_bw(TimeNs now) {
  state_ = State::kProbeBw;
  cwnd_gain_now_ = cfg_.cwnd_gain;
  int idx = static_cast<int>(rng_.next_below(7));
  if (idx >= 1) ++idx;
  cycle_index_ = idx % 8;
  pacing_gain_ = kPacingGainCycle[cycle_index_];
  cycle_stamp_ = now;
}

void BbrV2::update_bounds_on_round(const AckEvent& ev) {
  (void)ev;
  if (!loss_in_round_) {
    // Loss-free round: probe the long-term ceiling back up and, after a
    // full loss-free cycle, release the short-term bound entirely.
    if (inflight_hi_ != kInfBytes) {
      inflight_hi_ = static_cast<Bytes>(
          static_cast<double>(inflight_hi_) * cfg_.probe_up_factor);
      if (inflight_hi_ > bdp(4.0)) inflight_hi_ = kInfBytes;
    }
    if (inflight_lo_ != kInfBytes && cycles_completed_ > lo_release_cycle_) {
      inflight_lo_ = kInfBytes;
    }
  }
  loss_in_round_ = false;
}

void BbrV2::on_congestion_event(const LossEvent& ev) {
  loss_in_round_ = true;
  // Short-term: multiplicative decrease like a loss-based CCA (beta = 0.7).
  const Bytes current = cwnd();
  inflight_lo_ = std::max<Bytes>(
      static_cast<Bytes>(static_cast<double>(current) * cfg_.beta),
      cfg_.min_pipe_cwnd);
  lo_release_cycle_ = cycles_completed_;
  // Long-term: remember the in-flight level where loss appeared.
  inflight_hi_ = std::max(std::min(inflight_hi_, ev.inflight + ev.lost_bytes),
                          cfg_.min_pipe_cwnd);
}

void BbrV2::on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight) {
  (void)now;
  (void)lost_bytes;
  (void)inflight;
  loss_in_round_ = true;
}

void BbrV2::on_rto(TimeNs now) {
  (void)now;
  prior_cwnd_ = std::max(prior_cwnd_, cwnd_raw_);
  cwnd_raw_ = cfg_.min_pipe_cwnd;
  inflight_lo_ = cfg_.min_pipe_cwnd;
}

}  // namespace bbrnash
