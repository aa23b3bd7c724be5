// Sender: the reliable bulk-transfer transport endpoint.
//
// Responsibilities (mirroring Linux tcp_input/tcp_output):
//   * transmit gating by cwnd and pacing rate (unified engine),
//   * per-packet delivery accounting and delivery-rate samples (tcp_rate.c
//     equivalent — BBR's bandwidth estimator is defined on these),
//   * loss detection by packet threshold (dupthresh = 3 later deliveries,
//     RACK-like) with an RTO fallback,
//   * one congestion notification per recovery episode,
//   * retransmission of lost packets ahead of new data.
//
// The application is an infinite bulk source: there is always new data, so
// flows are never app-limited (matching the paper's 2-minute iperf-style
// transfers).
//
// `Cc` is the congestion control, held by value and called directly (see
// cc/cc_variant.hpp for the callbacks it must provide). `Transmit` is the
// exit hop, any callable taking `const Packet&`; a concrete hop type lets
// maybe_send() inline into it. Sender is the CcVariant instantiation with a
// std::function exit, compiled once in sender.cpp; the dumbbell
// (exp/dumbbell.hpp) plugs in its access path, and tests instantiate
// scripted doubles.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <utility>

#include "cc/cc_variant.hpp"
#include "flow/send_records.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/ring_deque.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace bbrnash {

struct SenderConfig {
  Bytes mss = kDefaultMss;
  Bytes header_bytes = kHeaderBytes;
  int dupthresh = 3;             ///< later deliveries before declaring loss
  TimeNs min_rto = from_ms(200); ///< Linux's TCP_RTO_MIN
  TimeNs initial_rto = from_sec(1);
  /// Pacing releases packets in bursts of up to this many segments, like
  /// Linux's TSO autosizing (tcp_tso_autosize targets ~1 ms of data per
  /// burst). Purely a shaping detail for rate-based CCAs: the average rate
  /// is unchanged, but single-packet pacing into a busy FIFO under-grabs
  /// queue space relative to real stacks.
  int pacing_quantum_segments = 4;

  /// Total payload bytes the application wants to transfer; 0 = unbounded
  /// bulk flow (the paper's 2-minute iperf-style senders). Finite flows
  /// stop producing new data at the limit and report a completion time.
  Bytes transfer_bytes = 0;
};

template <class Cc, class Transmit = std::function<void(const Packet&)>>
class BasicSender {
 public:
  /// `transmit` hands a packet to the network (the bottleneck ingress);
  /// its return value is ignored — drops are discovered via ACKs, exactly
  /// like a real endpoint.
  using TransmitFn = Transmit;

  BasicSender(Simulator& sim, FlowId flow, SenderConfig cfg, Cc cc,
              TransmitFn transmit)
      : sim_(sim),
        flow_(flow),
        cfg_(cfg),
        cc_(std::move(cc)),
        transmit_(std::move(transmit)) {}

  BasicSender(const BasicSender&) = delete;
  BasicSender& operator=(const BasicSender&) = delete;

  /// Begins transmitting at simulated time `at`.
  void start(TimeNs at);

  /// Pre-sizes the per-packet bookkeeping rings: `span` records (the
  /// sequence span from the oldest unretired packet to the newest),
  /// `orders` send orders (oldest in flight to newest) and `lost` queued
  /// retransmissions, so they reach high-water capacity before the hot
  /// path runs instead of growing (allocating) mid-measurement. Purely a
  /// perf knob: the rings still grow on demand past the hints.
  void reserve_windows(std::size_t span, std::size_t orders,
                       std::size_t lost) {
    records_.reserve(span);
    inflight_by_order_.reserve(orders);
    retx_queue_.reserve(lost);
  }

  /// Delivers an ACK from the reverse path.
  void on_ack(const Ack& ack);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] FlowId flow() const noexcept { return flow_; }
  [[nodiscard]] Bytes inflight_bytes() const noexcept { return inflight_; }
  [[nodiscard]] Bytes delivered_bytes() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t retransmit_count() const noexcept {
    return retransmits_;
  }
  [[nodiscard]] std::uint64_t rto_count() const noexcept { return rtos_; }
  /// ACK packets handed to on_ack() — the conservation audit's terminal
  /// counter for the reverse path.
  [[nodiscard]] std::uint64_t acks_received() const noexcept {
    return acks_received_;
  }
  /// True once every application byte has been delivered (finite flows).
  [[nodiscard]] bool completed() const noexcept {
    return cfg_.transfer_bytes > 0 && delivered_ >= cfg_.transfer_bytes;
  }
  /// Completion timestamp, or kTimeNone while incomplete/unbounded.
  [[nodiscard]] TimeNs completed_at() const noexcept { return completed_at_; }
  [[nodiscard]] const Cc& cc() const noexcept { return cc_; }
  [[nodiscard]] TimeNs smoothed_rtt() const noexcept { return srtt_; }

  /// RTT statistics and inflight time-average accumulate from
  /// begin_measurement() (warm-up exclusion).
  void begin_measurement();
  [[nodiscard]] const RunningStats& rtt_stats() const noexcept {
    return rtt_stats_;
  }
  [[nodiscard]] double avg_inflight_bytes() const {
    return inflight_avg_.average();
  }
  /// Delivered bytes at the last begin_measurement() call.
  [[nodiscard]] Bytes delivered_at_measurement_start() const noexcept {
    return delivered_mark_;
  }
  [[nodiscard]] std::uint64_t retransmits_at_measurement_start() const noexcept {
    return retransmits_mark_;
  }
  [[nodiscard]] std::uint64_t rtos_at_measurement_start() const noexcept {
    return rtos_mark_;
  }

 private:
  void maybe_send();
  void transmit_seq(SeqNo seq, bool is_retransmit);
  void detect_losses();
  void mark_lost(SeqNo seq);
  void enter_recovery_if_needed();
  void arm_rto();
  void on_rto_fired();
  void update_rtt(TimeNs sample);

  [[nodiscard]] TxRecord* record_for(SeqNo seq);
  [[nodiscard]] TimeNs current_rto() const;
  void note_inflight_change();

  Simulator& sim_;
  FlowId flow_;
  SenderConfig cfg_;
  Cc cc_;
  TransmitFn transmit_;

  // Sequence space. records_ is indexed by (seq - base_seq_); the
  // retransmit queue holds sequence residues (see SeqResidue).
  RingDeque<TxRecord> records_;
  SeqNo base_seq_ = 0;   // smallest seq still tracked
  SeqNo next_seq_ = 0;   // next new sequence number to send
  RingDeque<std::uint32_t> retx_queue_;

  // Delivery / ordering state (tcp_rate.c equivalents).
  Bytes inflight_ = 0;
  Bytes delivered_ = 0;
  std::uint64_t delivered_pkts_ = 0;  ///< delivered_ / mss, kept alongside
  TimeNs delivered_time_ = 0;
  TimeNs first_tx_time_ = 0;  ///< send time of the most recently acked pkt
  std::uint64_t next_send_order_ = 1;
  std::uint64_t highest_delivered_order_ = 0;
  OrderWindow inflight_by_order_;

  // Recovery episode state.
  bool in_recovery_ = false;
  std::uint64_t recovery_exit_order_ = 0;
  Bytes episode_lost_ = 0;

  // RTT estimation (RFC 6298).
  TimeNs srtt_ = kTimeNone;
  TimeNs rttvar_ = 0;

  // RTO timer (lazy: re-validated at fire time against last progress).
  bool rto_armed_ = false;
  TimeNs last_progress_time_ = 0;
  int rto_backoff_ = 0;  ///< consecutive-RTO exponential backoff shift

  // Pacing.
  TimeNs next_send_allowed_ = 0;
  bool pacing_timer_armed_ = false;
  /// One segment's serialization time at pacing rate pace_rate_ (the
  /// division is redone only when the CC changes its pacing rate; NaN
  /// matches no rate).
  BytesPerSec pace_rate_ = std::numeric_limits<double>::quiet_NaN();
  TimeNs pace_pkt_time_ = 0;

  bool started_ = false;
  TimeNs completed_at_ = kTimeNone;

  // Counters and measurement.
  std::uint64_t retransmits_ = 0;
  std::uint64_t rtos_ = 0;
  std::uint64_t acks_received_ = 0;
  RunningStats rtt_stats_;
  TimeWeightedAverage inflight_avg_;
  bool measuring_ = false;
  Bytes delivered_mark_ = 0;
  std::uint64_t retransmits_mark_ = 0;
  std::uint64_t rtos_mark_ = 0;
};

using Sender = BasicSender<CcVariant>;
extern template class BasicSender<CcVariant>;

// --- Member definitions ----------------------------------------------------

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::start(TimeNs at) {
  assert(!started_);
  started_ = true;
  sim_.schedule_at(at, [this] {
    cc_.on_start(sim_.now());
    delivered_time_ = sim_.now();
    maybe_send();
  });
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::begin_measurement() {
  measuring_ = true;
  rtt_stats_.reset();
  inflight_avg_ = TimeWeightedAverage{};
  inflight_avg_.update(to_sec(sim_.now()), static_cast<double>(inflight_));
  delivered_mark_ = delivered_;
  retransmits_mark_ = retransmits_;
  rtos_mark_ = rtos_;
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::note_inflight_change() {
  if (measuring_) {
    inflight_avg_.update(to_sec(sim_.now()), static_cast<double>(inflight_));
  }
}

template <class Cc, class Transmit>
auto BasicSender<Cc, Transmit>::record_for(SeqNo seq) -> TxRecord* {
  if (seq < base_seq_) return nullptr;
  const auto idx = static_cast<std::size_t>(seq - base_seq_);
  if (idx >= records_.size()) return nullptr;
  return &records_[idx];
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::maybe_send() {
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
      seq = SeqResidue::decode(retx_queue_.front(), base_seq_);
      retx_queue_.pop_front();
      // The record may have been delivered meanwhile (stale entry) —
      // possible only via cumulative coverage; skip those. A retired
      // record's residue decodes past records_, to no record.
      TxRecord* rec = record_for(seq);
      if (rec == nullptr || rec->state() != TxState::kLost) continue;
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

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::transmit_seq(SeqNo seq, bool is_retransmit) {
  const TimeNs now = sim_.now();

  if (!is_retransmit) {
    assert(seq == next_seq_);
    SeqResidue::check_span(records_.size());
    ++next_seq_;
    records_.push_back(TxRecord{});
  }
  // A new packet's record is the back one, reached without an index.
  TxRecord* rec = is_retransmit ? record_for(seq) : &records_.back();
  assert(rec != nullptr);

  // tcp_rate_skb_sent: restart the rate window after an idle pipe so stale
  // timestamps cannot produce bogus intervals.
  if (inflight_ == 0) {
    first_tx_time_ = now;
    delivered_time_ = now;
  }
  rec->send_time = now;
  rec->sent(next_send_order_++, is_retransmit);
  rec->snapshot_delivered(delivered_pkts_);
  rec->delivered_time_at_send = delivered_time_;
  rec->first_tx_at_send = first_tx_time_;
  if (is_retransmit) ++retransmits_;
  inflight_by_order_.insert(rec->send_order(), seq);
  inflight_ += cfg_.mss;
  note_inflight_change();

  Packet pkt;
  pkt.flow = flow_;
  pkt.seq = seq;
  // Fits: Scenario::validate caps the MSS at kMaxWireBytes - kHeaderBytes.
  pkt.wire_bytes = static_cast<std::uint32_t>(cfg_.mss + cfg_.header_bytes);
  pkt.is_retransmit = is_retransmit;
  transmit_(pkt);

  if (!rto_armed_) arm_rto();
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::on_ack(const Ack& ack) {
  const TimeNs now = sim_.now();
  ++acks_received_;

  Bytes newly_acked = 0;
  TimeNs rtt_sample = kTimeNone;
  BytesPerSec rate_sample = 0;
  Bytes prior_delivered = 0;

  TxRecord* rec = record_for(ack.acked_seq);
  if (rec != nullptr && rec->state() != TxState::kDelivered) {
    // A lost-marked packet can still be "delivered" here only if the loss
    // marking was spurious; with a FIFO no-reorder network this happens
    // only for the original transmission racing a retransmit, which is
    // harmless — we count the delivery once.
    if (rec->state() == TxState::kInflight) {
      inflight_ -= cfg_.mss;
      note_inflight_change();
      inflight_by_order_.erase(rec->send_order());
    }
    rec->set_state(TxState::kDelivered);
    newly_acked = cfg_.mss;
    delivered_ += cfg_.mss;
    ++delivered_pkts_;
    delivered_time_ = now;
    rto_backoff_ = 0;  // forward progress: reset the Karn backoff
    if (completed_at_ == kTimeNone && cfg_.transfer_bytes > 0 &&
        delivered_ >= cfg_.transfer_bytes) {
      completed_at_ = now;
    }

    if (!rec->retransmitted()) {
      rtt_sample = now - rec->send_time;
      update_rtt(rtt_sample);
      if (measuring_) rtt_stats_.add(to_ms(rtt_sample));
    }

    prior_delivered =
        static_cast<Bytes>(rec->delivered_pkts_at_send) * cfg_.mss;

    // Delivery-rate sample, tcp_rate.c style: the interval is the longer of
    // the send phase (send spacing of the window this packet closes) and
    // the ack phase. Using only the ack phase would wildly over-estimate
    // bandwidth when a retransmitted hole fills and a burst of backlogged
    // deliveries collapses into a few milliseconds.
    const TimeNs snd_interval = rec->send_time - rec->first_tx_at_send;
    const TimeNs ack_interval = now - rec->delivered_time_at_send;
    const TimeNs interval = std::max(snd_interval, ack_interval);
    if (interval > 0) {
      rate_sample = static_cast<double>(delivered_ - prior_delivered) /
                    to_sec(interval);
    }
    // tcp_rate_skb_delivered: the send phase of the next sample starts at
    // this packet's transmission.
    first_tx_time_ = std::max(first_tx_time_, rec->send_time);

    highest_delivered_order_ =
        std::max(highest_delivered_order_, rec->send_order());
  }

  // Retire fully-covered records from the front.
  while (!records_.empty() && base_seq_ + 1 <= ack.cum_ack &&
         records_.front().state() == TxState::kDelivered) {
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

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::detect_losses() {
  if (highest_delivered_order_ < static_cast<std::uint64_t>(cfg_.dupthresh)) {
    return;
  }
  const std::uint64_t threshold =
      highest_delivered_order_ - static_cast<std::uint64_t>(cfg_.dupthresh);
  bool any_lost = false;
  while (!inflight_by_order_.empty() &&
         inflight_by_order_.front_order() <= threshold) {
    // Erases the front entry.
    mark_lost(inflight_by_order_.front_seq(base_seq_));
    any_lost = true;
  }
  if (any_lost) enter_recovery_if_needed();
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::mark_lost(SeqNo seq) {
  TxRecord* rec = record_for(seq);
  assert(rec != nullptr && rec->state() == TxState::kInflight);
  rec->set_state(TxState::kLost);
  inflight_by_order_.erase(rec->send_order());
  inflight_ -= cfg_.mss;
  note_inflight_change();
  retx_queue_.push_back(SeqResidue::encode(seq));
  episode_lost_ += cfg_.mss;
  cc_.on_packet_lost(sim_.now(), cfg_.mss, inflight_);
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::enter_recovery_if_needed() {
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

template <class Cc, class Transmit>
TimeNs BasicSender<Cc, Transmit>::current_rto() const {
  if (srtt_ == kTimeNone) return cfg_.initial_rto;
  return std::max(cfg_.min_rto, srtt_ + 4 * rttvar_);
}

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::arm_rto() {
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

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::on_rto_fired() {
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
    mark_lost(inflight_by_order_.front_seq(base_seq_));
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

template <class Cc, class Transmit>
void BasicSender<Cc, Transmit>::update_rtt(TimeNs sample) {
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
