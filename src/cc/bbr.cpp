#include "cc/bbr.hpp"

#include <algorithm>

namespace bbrnash {

Bbr::Bbr(const BbrConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      btlbw_(cfg.btlbw_window_rounds) {}

void Bbr::on_start(TimeNs now) {
  cwnd_ = cfg_.initial_cwnd;
  state_ = State::kStartup;
  pacing_gain_ = cfg_.high_gain;
  cwnd_gain_now_ = cfg_.high_gain;
  rtprop_stamp_ = now;
}

Bytes Bbr::bdp(double gain) const {
  if (!filters_primed()) return cfg_.initial_cwnd;
  const double bdp_bytes = btlbw_.best() * to_sec(rtprop_);
  return static_cast<Bytes>(gain * bdp_bytes);
}

BytesPerSec Bbr::pacing_rate() const {
  if (!filters_primed()) {
    // Nominal pre-estimate rate: initial window per (unknown) RTT — let the
    // initial burst go unpaced; the first RTT sample arms the filters.
    return kNoPacing;
  }
  return pacing_gain_ * btlbw_.best();
}

void Bbr::on_ack(const AckEvent& ev) {
  update_round(ev);
  update_btlbw(ev);
  check_full_pipe(ev);
  check_drain_done(ev);
  if (state_ == State::kProbeBw) update_probe_bw_cycle(ev);
  update_rtprop(ev);
  check_probe_rtt(ev);
  update_cwnd(ev);
}

void Bbr::update_round(const AckEvent& ev) {
  round_start_ = false;
  if (ev.prior_delivered >= next_round_delivered_) {
    next_round_delivered_ = ev.delivered;
    ++round_count_;
    round_start_ = true;
    loss_in_round_ = false;
  }
}

void Bbr::update_btlbw(const AckEvent& ev) {
  if (ev.delivery_rate <= 0) return;
  // The draft only discards app-limited samples that are below the current
  // estimate; our bulk flows are never app-limited.
  if (!ev.rate_app_limited || ev.delivery_rate >= btlbw_.best()) {
    btlbw_.update(round_count_, ev.delivery_rate);
  }
}

void Bbr::update_rtprop(const AckEvent& ev) {
  rtprop_expired_ = ev.now > rtprop_stamp_ + cfg_.rtprop_window;
  if (ev.rtt == kTimeNone) return;
  if (ev.rtt <= rtprop_ || rtprop_expired_) {
    rtprop_ = ev.rtt;
    rtprop_stamp_ = ev.now;
  }
}

void Bbr::check_full_pipe(const AckEvent& ev) {
  (void)ev;
  if (filled_pipe_ || !round_start_) return;
  if (btlbw_.best() >= full_bw_ * 1.25) {
    full_bw_ = btlbw_.best();
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= 3) {
    filled_pipe_ = true;
    if (state_ == State::kStartup) {
      state_ = State::kDrain;
      pacing_gain_ = cfg_.drain_gain;
      cwnd_gain_now_ = cfg_.high_gain;
    }
  }
}

void Bbr::check_drain_done(const AckEvent& ev) {
  if (state_ != State::kDrain) return;
  if (ev.inflight <= bdp(1.0)) enter_probe_bw(ev.now);
}

void Bbr::enter_probe_bw(TimeNs now) {
  state_ = State::kProbeBw;
  cwnd_gain_now_ = cfg_.cwnd_gain;
  // Random initial phase, excluding the draining (0.75) phase, per draft.
  int idx = static_cast<int>(rng_.next_below(7));
  if (idx >= 1) ++idx;
  cycle_index_ = idx % 8;
  pacing_gain_ = kPacingGainCycle[cycle_index_];
  cycle_stamp_ = now;
}

void Bbr::update_probe_bw_cycle(const AckEvent& ev) {
  const TimeNs rtprop = rtprop_ == kTimeInf ? from_ms(10) : rtprop_;
  const bool elapsed = ev.now - cycle_stamp_ > rtprop;
  bool advance = false;
  const double gain = kPacingGainCycle[cycle_index_];
  // bbrnash-lint: allow(float-equality) -- exact-match dispatch on gain
  // values read verbatim from kPacingGainCycle; never computed.
  if (gain == 1.25) {
    // Keep probing until the extra in-flight had a chance to materialize
    // (or losses say the pipe is full).
    advance = elapsed && (loss_in_round_ || ev.inflight >= bdp(1.25));
    // bbrnash-lint: allow(float-equality) -- same exact-table dispatch.
  } else if (gain == 0.75) {
    // Stop draining early once we are back to one BDP.
    advance = elapsed || ev.inflight <= bdp(1.0);
  } else {
    advance = elapsed;
  }
  if (advance) {
    cycle_index_ = (cycle_index_ + 1) % 8;
    pacing_gain_ = kPacingGainCycle[cycle_index_];
    cycle_stamp_ = ev.now;
  }
}

void Bbr::check_probe_rtt(const AckEvent& ev) {
  if (state_ != State::kProbeRtt && rtprop_expired_ && !idle_restart_) {
    state_ = State::kProbeRtt;
    prior_cwnd_ = cwnd_;
    pacing_gain_ = 1.0;
    cwnd_gain_now_ = 1.0;
    probe_rtt_done_stamp_ = kTimeNone;
  }
  if (state_ == State::kProbeRtt) {
    if (probe_rtt_done_stamp_ == kTimeNone &&
        ev.inflight <= cfg_.min_pipe_cwnd) {
      // The pipe is drained to 4 packets: start the 200 ms dwell.
      probe_rtt_done_stamp_ = ev.now + cfg_.probe_rtt_duration;
      probe_rtt_round_done_ = false;
      next_round_delivered_ = ev.delivered;
    } else if (probe_rtt_done_stamp_ != kTimeNone) {
      if (round_start_) probe_rtt_round_done_ = true;
      if (probe_rtt_round_done_ && ev.now >= probe_rtt_done_stamp_) {
        exit_probe_rtt(ev.now);
      }
    }
  }
}

void Bbr::exit_probe_rtt(TimeNs now) {
  rtprop_stamp_ = now;
  cwnd_ = std::max(cwnd_, prior_cwnd_);
  if (filled_pipe_) {
    enter_probe_bw(now);
  } else {
    state_ = State::kStartup;
    pacing_gain_ = cfg_.high_gain;
    cwnd_gain_now_ = cfg_.high_gain;
  }
}

void Bbr::update_cwnd(const AckEvent& ev) {
  if (state_ == State::kProbeRtt) {
    cwnd_ = cfg_.min_pipe_cwnd;
    return;
  }

  // Recovery modulation (draft §4.2.3.4). The first round of a recovery
  // episode observes packet conservation; recovery exit restores the saved
  // window so the bandwidth model, not the loss, decides the rate.
  if (in_loss_recovery_) {
    if (!ev.in_recovery) {
      in_loss_recovery_ = false;
      packet_conservation_ = false;
      cwnd_ = std::max(cwnd_, saved_cwnd_);
    } else {
      if (packet_conservation_ && round_count_ > recovery_start_round_) {
        packet_conservation_ = false;
      }
      if (packet_conservation_) {
        cwnd_ = std::max(cwnd_, ev.inflight + ev.acked_bytes);
        cwnd_ = std::max(cwnd_, cfg_.min_pipe_cwnd);
        return;
      }
    }
  }

  const Bytes target = std::max(bdp(cwnd_gain_now_), cfg_.min_pipe_cwnd);
  if (filled_pipe_) {
    // Post-startup: grow toward the target by at most the acked bytes per
    // ACK (draft's incremental ramp), collapse immediately when above it.
    cwnd_ = cwnd_ < target ? std::min(cwnd_ + ev.acked_bytes, target) : target;
  } else {
    // Startup: never shrink (exponential growth shaped by the gains).
    cwnd_ = std::max(cwnd_, std::min(cwnd_ + ev.acked_bytes, target));
  }
}

void Bbr::on_congestion_event(const LossEvent& ev) {
  // BBR's *model* is loss-agnostic (paper assumption 4), but recovery
  // briefly switches to packet conservation, as in the draft/kernel.
  loss_in_round_ = true;
  if (!in_loss_recovery_) {
    in_loss_recovery_ = true;
    packet_conservation_ = true;
    recovery_start_round_ = round_count_;
    saved_cwnd_ = cwnd_;
    cwnd_ = std::max(ev.inflight, cfg_.min_pipe_cwnd);
  }
}

void Bbr::on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight) {
  (void)now;
  (void)inflight;
  if (in_loss_recovery_) {
    cwnd_ = std::max(cwnd_ - lost_bytes, cfg_.min_pipe_cwnd);
  }
}

void Bbr::on_rto(TimeNs now) {
  (void)now;
  // Conservative restart, as tcp_bbr does via cwnd events: collapse to the
  // minimal pipe but keep the model (filters) intact.
  prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
  cwnd_ = cfg_.min_pipe_cwnd;
}

}  // namespace bbrnash
