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
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "cc/cc_variant.hpp"
#include "cc/congestion_control.hpp"
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

class Sender {
 public:
  /// `transmit` hands a packet to the network (the bottleneck ingress);
  /// its return value is ignored — drops are discovered via ACKs, exactly
  /// like a real endpoint.
  using TransmitFn = std::function<void(const Packet&)>;

  /// Hot-path constructor: the CC is held by value inside the variant, so
  /// its callbacks inline into the transport loop (see cc_variant.hpp).
  Sender(Simulator& sim, FlowId flow, SenderConfig cfg, CcVariant cc,
         TransmitFn transmit);

  /// Virtual-dispatch adapter for tests, examples, and custom algorithms:
  /// identical behaviour at the old indirect-call cost.
  Sender(Simulator& sim, FlowId flow, SenderConfig cfg,
         std::unique_ptr<CongestionControl> cc, TransmitFn transmit);

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Begins transmitting at simulated time `at`.
  void start(TimeNs at);

  /// Pre-sizes the per-packet bookkeeping rings for a window of up to
  /// `packets` tracked packets, so they reach high-water capacity before
  /// the hot path runs instead of growing (allocating) mid-measurement.
  /// Purely a perf knob: the rings still grow on demand past the hint.
  void reserve_windows(std::size_t packets) {
    records_.reserve(packets);
    retx_queue_.reserve(packets);
    inflight_by_order_.reserve(packets);
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
  [[nodiscard]] const CongestionControl& cc() const noexcept {
    return cc_.base();
  }
  [[nodiscard]] CongestionControl& cc() noexcept { return cc_.base(); }
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
  enum class TxState : std::uint8_t { kInflight, kDelivered, kLost };

  struct TxRecord {
    TimeNs send_time = kTimeNone;
    std::uint64_t send_order = 0;
    Bytes delivered_at_send = 0;       // delivery-rate snapshot
    TimeNs delivered_time_at_send = 0; // delivery-rate snapshot
    TimeNs first_tx_at_send = 0;       // start of this packet's send phase
    TxState state = TxState::kInflight;
    std::uint8_t retx_count = 0;
  };

  void maybe_send();
  void transmit_seq(SeqNo seq, bool is_retransmit);
  void process_delivery(SeqNo seq);
  void detect_losses();
  void mark_lost(SeqNo seq);
  void enter_recovery_if_needed(Bytes newly_lost);
  void arm_rto();
  void on_rto_fired();
  void update_rtt(TimeNs sample);

  [[nodiscard]] TxRecord* record_for(SeqNo seq);
  [[nodiscard]] TimeNs current_rto() const;
  void note_inflight_change();

  /// The set of in-flight packets keyed by send order (what std::map was
  /// used for). Orders are assigned consecutively at transmit time, so the
  /// ordered map degenerates into a ring indexed by (order - base): insert
  /// is a push at the back, erase tombstones the slot, and the minimum
  /// live order is maintained by advancing the base past tombstones —
  /// O(1) amortized, allocation-free at steady state where the map paid a
  /// node allocation per transmitted packet.
  class OrderWindow {
   public:
    /// Pre: orders arrive consecutively (order == base + size()).
    void insert(std::uint64_t order, SeqNo seq) {
      assert(order == base_ + slots_.size() && "send orders are consecutive");
      (void)order;
      slots_.push_back(seq);
      ++live_;
    }
    /// Erasing an absent order is a no-op, like map::erase by key.
    void erase(std::uint64_t order) {
      if (order < base_) return;
      const auto idx = static_cast<std::size_t>(order - base_);
      if (idx >= slots_.size() || slots_[idx] == kDead) return;
      slots_[idx] = kDead;
      --live_;
      // Keep the front slot live (or the ring empty) so front_*() are O(1).
      while (!slots_.empty() && slots_.front() == kDead) {
        slots_.pop_front();
        ++base_;
      }
    }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    /// Smallest live send order / its sequence number. Pre: !empty().
    [[nodiscard]] std::uint64_t front_order() const {
      assert(live_ > 0);
      return base_;
    }
    [[nodiscard]] SeqNo front_seq() const {
      assert(live_ > 0);
      return slots_.front();
    }
    void reserve(std::size_t n) { slots_.reserve(n); }

   private:
    static constexpr SeqNo kDead = ~SeqNo{0};

    RingDeque<SeqNo> slots_;
    std::uint64_t base_ = 1;  ///< send orders start at 1
    std::size_t live_ = 0;
  };

  Simulator& sim_;
  FlowId flow_;
  SenderConfig cfg_;
  CcVariant cc_;
  TransmitFn transmit_;

  // Sequence space. records_ is indexed by (seq - base_seq_).
  RingDeque<TxRecord> records_;
  SeqNo base_seq_ = 0;   // smallest seq still tracked
  SeqNo next_seq_ = 0;   // next new sequence number to send
  RingDeque<SeqNo> retx_queue_;

  // Delivery / ordering state (tcp_rate.c equivalents).
  Bytes inflight_ = 0;
  Bytes delivered_ = 0;
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

}  // namespace bbrnash
