#include "flow/sender.hpp"

#include <algorithm>
#include <cassert>

namespace bbrnash {

namespace {

CcVariant adapt(std::unique_ptr<CongestionControl> cc) {
  assert(cc && "sender requires a congestion control instance");
  return CcVariant{std::move(cc)};
}

}  // namespace

Sender::Sender(Simulator& sim, FlowId flow, SenderConfig cfg, CcVariant cc,
               TransmitFn transmit)
    : sim_(sim),
      flow_(flow),
      cfg_(cfg),
      cc_(std::move(cc)),
      transmit_(std::move(transmit)) {}

Sender::Sender(Simulator& sim, FlowId flow, SenderConfig cfg,
               std::unique_ptr<CongestionControl> cc, TransmitFn transmit)
    : Sender(sim, flow, cfg, adapt(std::move(cc)), std::move(transmit)) {}

void Sender::start(TimeNs at) {
  assert(!started_);
  started_ = true;
  sim_.schedule_at(at, [this] {
    cc_.on_start(sim_.now());
    delivered_time_ = sim_.now();
    maybe_send();
  });
}

void Sender::begin_measurement() {
  measuring_ = true;
  rtt_stats_.reset();
  inflight_avg_ = TimeWeightedAverage{};
  inflight_avg_.update(to_sec(sim_.now()), static_cast<double>(inflight_));
  delivered_mark_ = delivered_;
  retransmits_mark_ = retransmits_;
  rtos_mark_ = rtos_;
}

void Sender::note_inflight_change() {
  if (measuring_) {
    inflight_avg_.update(to_sec(sim_.now()), static_cast<double>(inflight_));
  }
}

Sender::TxRecord* Sender::record_for(SeqNo seq) {
  if (seq < base_seq_) return nullptr;
  const auto idx = static_cast<std::size_t>(seq - base_seq_);
  if (idx >= records_.size()) return nullptr;
  return &records_[idx];
}

void Sender::maybe_send() {
  // Every gate input is loop-invariant: the loop never runs a CC callback
  // and never advances the clock (transmit_ only enqueues/schedules), so
  // cwnd, now, the pacing rate, and the derived burst geometry are read
  // once per dispatch instead of once per packet.
  const Bytes window = cc_.cwnd();
  const TimeNs now = sim_.now();
  const BytesPerSec rate = cc_.pacing_rate();
  const bool paced = rate < kNoPacing;
  TimeNs pkt_time = 0;
  TimeNs burst_ahead = 0;
  if (paced) {
    if (rate != pace_rate_) {
      pace_rate_ = rate;
      pace_pkt_time_ = serialization_time(cfg_.mss + cfg_.header_bytes, rate);
    }
    pkt_time = pace_pkt_time_;
    const int quantum = std::max(
        1,
        std::min(cfg_.pacing_quantum_segments, cc_.pacing_burst_segments()));
    burst_ahead = pkt_time * (quantum - 1);
  }
  while (true) {
    // Anything to send? Retransmissions take priority over new data.
    const bool have_retx = !retx_queue_.empty();
    // cwnd gate (bytes of payload in flight).
    if (inflight_ + cfg_.mss > window) return;

    // Pacing gate: a token bucket with depth `pacing_quantum_segments`.
    // The pacing clock may run up to (Q-1) packet-times ahead of now, so
    // packets leave in TSO-like bursts of up to Q at the exact long-run
    // rate.
    if (paced && next_send_allowed_ > now + burst_ahead) {
      if (!pacing_timer_armed_) {
        pacing_timer_armed_ = true;
        sim_.schedule_at(next_send_allowed_ - burst_ahead, [this] {
          pacing_timer_armed_ = false;
          maybe_send();
        });
      }
      return;
    }

    SeqNo seq;
    bool is_retx = false;
    if (have_retx) {
      seq = retx_queue_.front();
      retx_queue_.pop_front();
      // The record may have been delivered meanwhile (stale entry) —
      // possible only via cumulative coverage; skip those.
      TxRecord* rec = record_for(seq);
      if (rec == nullptr || rec->state != TxState::kLost) continue;
      is_retx = true;
    } else {
      // Finite application: no new data past the transfer size.
      if (cfg_.transfer_bytes > 0 &&
          static_cast<Bytes>(next_seq_) * cfg_.mss >= cfg_.transfer_bytes) {
        return;
      }
      seq = next_seq_;
    }
    transmit_seq(seq, is_retx);

    if (paced) {
      // Tokens cap at the bucket depth: a long idle period grants at most
      // one full burst, never unbounded catch-up.
      next_send_allowed_ =
          std::max(next_send_allowed_, now - burst_ahead) + pkt_time;
    }
  }
}

void Sender::transmit_seq(SeqNo seq, bool is_retransmit) {
  const TimeNs now = sim_.now();

  if (!is_retransmit) {
    assert(seq == next_seq_);
    ++next_seq_;
    records_.push_back(TxRecord{});
  }
  TxRecord* rec = record_for(seq);
  assert(rec != nullptr);

  // tcp_rate_skb_sent: restart the rate window after an idle pipe so stale
  // timestamps cannot produce bogus intervals.
  if (inflight_ == 0) {
    first_tx_time_ = now;
    delivered_time_ = now;
  }
  rec->send_time = now;
  rec->send_order = next_send_order_++;
  rec->delivered_at_send = delivered_;
  rec->delivered_time_at_send = delivered_time_;
  rec->first_tx_at_send = first_tx_time_;
  rec->state = TxState::kInflight;
  if (is_retransmit) {
    ++rec->retx_count;
    ++retransmits_;
  }
  inflight_by_order_.insert(rec->send_order, seq);
  inflight_ += cfg_.mss;
  note_inflight_change();

  Packet pkt;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.payload_bytes = cfg_.mss;
  pkt.wire_bytes = cfg_.mss + cfg_.header_bytes;
  pkt.is_retransmit = is_retransmit;
  transmit_(pkt);

  if (!rto_armed_) arm_rto();
}

void Sender::on_ack(const Ack& ack) {
  const TimeNs now = sim_.now();
  ++acks_received_;

  Bytes newly_acked = 0;
  TimeNs rtt_sample = kTimeNone;
  BytesPerSec rate_sample = 0;
  Bytes prior_delivered = 0;

  TxRecord* rec = record_for(ack.acked_seq);
  if (rec != nullptr && rec->state != TxState::kDelivered) {
    // A lost-marked packet can still be "delivered" here only if the loss
    // marking was spurious; with a FIFO no-reorder network this happens
    // only for the original transmission racing a retransmit, which is
    // harmless — we count the delivery once.
    if (rec->state == TxState::kInflight) {
      inflight_ -= cfg_.mss;
      note_inflight_change();
      inflight_by_order_.erase(rec->send_order);
    }
    rec->state = TxState::kDelivered;
    newly_acked = cfg_.mss;
    delivered_ += cfg_.mss;
    delivered_time_ = now;
    rto_backoff_ = 0;  // forward progress: reset the Karn backoff
    if (completed_at_ == kTimeNone && cfg_.transfer_bytes > 0 &&
        delivered_ >= cfg_.transfer_bytes) {
      completed_at_ = now;
    }

    if (rec->retx_count == 0) {
      rtt_sample = now - rec->send_time;
      update_rtt(rtt_sample);
      if (measuring_) rtt_stats_.add(to_ms(rtt_sample));
    }

    prior_delivered = rec->delivered_at_send;

    // Delivery-rate sample, tcp_rate.c style: the interval is the longer of
    // the send phase (send spacing of the window this packet closes) and
    // the ack phase. Using only the ack phase would wildly over-estimate
    // bandwidth when a retransmitted hole fills and a burst of backlogged
    // deliveries collapses into a few milliseconds.
    const TimeNs snd_interval = rec->send_time - rec->first_tx_at_send;
    const TimeNs ack_interval = now - rec->delivered_time_at_send;
    const TimeNs interval = std::max(snd_interval, ack_interval);
    if (interval > 0) {
      rate_sample = static_cast<double>(delivered_ - rec->delivered_at_send) /
                    to_sec(interval);
    }
    // tcp_rate_skb_delivered: the send phase of the next sample starts at
    // this packet's transmission.
    first_tx_time_ = std::max(first_tx_time_, rec->send_time);

    highest_delivered_order_ =
        std::max(highest_delivered_order_, rec->send_order);
  }

  // Retire fully-covered records from the front.
  while (!records_.empty() && base_seq_ + 1 <= ack.cum_ack &&
         records_.front().state == TxState::kDelivered) {
    records_.pop_front();
    ++base_seq_;
  }

  detect_losses();

  // Exit recovery once a packet sent after the episode began is delivered.
  if (in_recovery_ && highest_delivered_order_ >= recovery_exit_order_) {
    in_recovery_ = false;
    episode_lost_ = 0;
  }

  // Note forward progress for the lazy RTO timer (re-arming the heap timer
  // on every ACK would leave one dead entry per ACK in the event queue).
  last_progress_time_ = now;
  if (!rto_armed_ && !inflight_by_order_.empty()) arm_rto();

  if (newly_acked > 0) {
    AckEvent ev;
    ev.now = now;
    ev.rtt = rtt_sample;
    ev.acked_bytes = newly_acked;
    ev.delivered = delivered_;
    ev.prior_delivered = prior_delivered;
    ev.delivery_rate = rate_sample;
    ev.rate_app_limited = false;
    ev.inflight = inflight_;
    ev.in_recovery = in_recovery_;
    cc_.on_ack(ev);
  }

  maybe_send();
}

void Sender::detect_losses() {
  if (highest_delivered_order_ < static_cast<std::uint64_t>(cfg_.dupthresh)) {
    return;
  }
  const std::uint64_t threshold =
      highest_delivered_order_ - static_cast<std::uint64_t>(cfg_.dupthresh);
  Bytes newly_lost = 0;
  while (!inflight_by_order_.empty() &&
         inflight_by_order_.front_order() <= threshold) {
    mark_lost(inflight_by_order_.front_seq());  // erases the front entry
    newly_lost += cfg_.mss;
  }
  if (newly_lost > 0) enter_recovery_if_needed(newly_lost);
}

void Sender::mark_lost(SeqNo seq) {
  TxRecord* rec = record_for(seq);
  assert(rec != nullptr && rec->state == TxState::kInflight);
  rec->state = TxState::kLost;
  inflight_by_order_.erase(rec->send_order);
  inflight_ -= cfg_.mss;
  note_inflight_change();
  retx_queue_.push_back(seq);
  episode_lost_ += cfg_.mss;
  cc_.on_packet_lost(sim_.now(), cfg_.mss, inflight_);
}

void Sender::enter_recovery_if_needed(Bytes newly_lost) {
  (void)newly_lost;
  if (in_recovery_) return;
  in_recovery_ = true;
  recovery_exit_order_ = next_send_order_;
  LossEvent ev;
  ev.now = sim_.now();
  ev.inflight = inflight_;
  ev.lost_bytes = episode_lost_;
  ev.delivered = delivered_;
  cc_.on_congestion_event(ev);
}

TimeNs Sender::current_rto() const {
  if (srtt_ == kTimeNone) return cfg_.initial_rto;
  return std::max(cfg_.min_rto, srtt_ + 4 * rttvar_);
}

void Sender::arm_rto() {
  assert(!rto_armed_);
  if (inflight_by_order_.empty()) return;
  // Lazy timer, semantics of Linux's tcp_rearm_rto (restart relative to the
  // last forward progress) without a cancel per ACK: the timer fires at the
  // expiry computed when armed, and the handler re-arms instead of firing
  // when progress has pushed the legitimate deadline into the future.
  last_progress_time_ = std::max(last_progress_time_, sim_.now());
  const TimeNs expiry = last_progress_time_ + (current_rto() << rto_backoff_);
  sim_.schedule_at(std::max(expiry, sim_.now() + 1), [this] {
    rto_armed_ = false;
    on_rto_fired();
  });
  rto_armed_ = true;
}

void Sender::on_rto_fired() {
  if (inflight_by_order_.empty()) return;  // everything was delivered
  const TimeNs legitimate =
      last_progress_time_ + (current_rto() << rto_backoff_);
  if (sim_.now() < legitimate) {
    // Progress happened since the timer was armed: not a real timeout.
    arm_rto();
    return;
  }
  ++rtos_;
  if (rto_backoff_ < 6) ++rto_backoff_;
  // Declare everything in flight lost and restart from the oldest hole.
  while (!inflight_by_order_.empty()) {
    mark_lost(inflight_by_order_.front_seq());
  }
  // RTO resets any recovery episode: the CC gets the dedicated signal.
  in_recovery_ = false;
  episode_lost_ = 0;
  cc_.on_rto(sim_.now());
  // Back off the RTT estimator's variance (classic Karn backoff is modelled
  // by simply doubling the smoothed estimate's variance term).
  rttvar_ *= 2;
  maybe_send();
  if (!rto_armed_ && !inflight_by_order_.empty()) arm_rto();
}

void Sender::update_rtt(TimeNs sample) {
  if (srtt_ == kTimeNone) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  const TimeNs err = std::abs(sample - srtt_);
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + sample) / 8;
}

}  // namespace bbrnash
