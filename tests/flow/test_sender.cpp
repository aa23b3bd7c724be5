// Sender transport-mechanics tests, using a scripted congestion control and
// a hand-driven "network" (transmitted packets are captured; ACKs are fed
// back manually at chosen times).
#include "flow/sender.hpp"

#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "flow/receiver.hpp"

namespace bbrnash {
namespace {

/// What the scripted congestion control reports and records. The harness
/// owns it, so tests steer and inspect it while the sender holds the CC.
struct Script {
  Bytes cwnd_bytes = 10 * kDefaultMss;
  BytesPerSec pacing = kNoPacing;
  std::vector<AckEvent> acks;
  std::vector<LossEvent> congestion_events;
  Bytes lost_bytes = 0;
  int rtos = 0;
};

/// A congestion control with externally fixed cwnd and pacing, recording
/// every callback it receives into its Script.
class ScriptedCc {
 public:
  explicit ScriptedCc(Script* script) : s_(script) {}

  void on_start(TimeNs) {}
  void on_ack(const AckEvent& ev) { s_->acks.push_back(ev); }
  void on_congestion_event(const LossEvent& ev) {
    s_->congestion_events.push_back(ev);
  }
  void on_packet_lost(TimeNs, Bytes lost, Bytes) { s_->lost_bytes += lost; }
  void on_rto(TimeNs) { ++s_->rtos; }
  [[nodiscard]] Bytes cwnd() const { return s_->cwnd_bytes; }
  [[nodiscard]] BytesPerSec pacing_rate() const { return s_->pacing; }
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

 private:
  Script* s_;
};

using ScriptedSender = BasicSender<ScriptedCc>;

struct Harness {
  Simulator sim;
  Script script;
  Script* cc = &script;
  std::unique_ptr<ScriptedSender> sender;
  std::vector<Packet> wire;

  explicit Harness(SenderConfig cfg = {}) {
    sender = std::make_unique<ScriptedSender>(
        sim, 0, cfg, ScriptedCc{&script},
        [this](const Packet& p) { wire.push_back(p); });
  }

  // Delivers an ACK for `seq` with cumulative `cum` at sim-now + delta.
  void ack(SeqNo seq, SeqNo cum, TimeNs at) {
    sim.schedule_at(at, [this, seq, cum] {
      sender->on_ack(Ack{0, seq, cum, 0});
    });
  }
};

TEST(Sender, SendsInitialWindowOnStart) {
  Harness h;
  h.sender->start(0);
  h.sim.run_until(from_ms(1));
  EXPECT_EQ(h.wire.size(), 10u);  // 10 * MSS / MSS
  for (SeqNo s = 0; s < 10; ++s) EXPECT_EQ(h.wire[s].seq, s);
  EXPECT_EQ(h.sender->inflight_bytes(), 10 * kDefaultMss);
}

TEST(Sender, CwndGatesTransmission) {
  Harness h;
  h.cc->cwnd_bytes = 3 * kDefaultMss;
  h.sender->start(0);
  h.sim.run_until(from_ms(1));
  EXPECT_EQ(h.wire.size(), 3u);
}

TEST(Sender, AckReleasesNewData) {
  Harness h;
  h.cc->cwnd_bytes = 2 * kDefaultMss;
  h.sender->start(0);
  h.ack(0, 1, from_ms(10));
  h.sim.run_until(from_ms(11));
  ASSERT_EQ(h.wire.size(), 3u);
  EXPECT_EQ(h.wire[2].seq, 2u);
  EXPECT_EQ(h.sender->delivered_bytes(), kDefaultMss);
}

TEST(Sender, PacingSpacesPackets) {
  SenderConfig cfg;
  cfg.pacing_quantum_segments = 1;  // exact per-packet spacing
  Harness h{cfg};
  // 1.5 MB/s pacing: one 1500-byte wire packet per ms.
  h.cc->pacing = 1.5e6;
  h.cc->cwnd_bytes = 100 * kDefaultMss;
  h.sender->start(0);
  h.sim.run_until(from_ms(3) + from_us(500));
  EXPECT_EQ(h.wire.size(), 4u);  // t = 0, 1, 2, 3 ms
}

TEST(Sender, PacingQuantumBursts) {
  SenderConfig cfg;
  cfg.pacing_quantum_segments = 4;  // token bucket of depth 4
  Harness h{cfg};
  h.cc->pacing = 1.5e6;  // 1 ms per packet
  h.cc->cwnd_bytes = 100 * kDefaultMss;
  h.sender->start(0);
  h.sim.run_until(from_us(100));
  // An idle bucket releases one full burst immediately...
  EXPECT_EQ(h.wire.size(), 4u);
  // ...then reverts to the long-run rate: ~1 packet/ms afterwards.
  h.sim.run_until(from_ms(10) + from_us(500));
  EXPECT_EQ(h.wire.size(), 14u);
}

TEST(Sender, RttSampleReachesCc) {
  Harness h;
  h.sender->start(0);
  h.ack(0, 1, from_ms(40));
  h.sim.run_until(from_ms(41));
  ASSERT_FALSE(h.cc->acks.empty());
  EXPECT_EQ(h.cc->acks[0].rtt, from_ms(40));
  EXPECT_EQ(h.sender->smoothed_rtt(), from_ms(40));
}

TEST(Sender, DeliveryRateSampleIsSane) {
  Harness h;
  h.cc->cwnd_bytes = 4 * kDefaultMss;
  h.sender->start(0);
  // Four acks spaced 1 ms, starting at t=40ms.
  for (SeqNo s = 0; s < 4; ++s) {
    h.ack(s, s + 1, from_ms(40) + from_ms(1) * static_cast<TimeNs>(s));
  }
  h.sim.run_until(from_ms(50));
  ASSERT_EQ(h.cc->acks.size(), 4u);
  // Later samples: ~1 MSS per ms = 1.448 MB/s, but never wildly above.
  const double rate = h.cc->acks[3].delivery_rate;
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 3e6);
}

TEST(Sender, ThreeLaterDeliveriesMarkLoss) {
  Harness h;
  h.cc->cwnd_bytes = 10 * kDefaultMss;
  h.sender->start(0);
  // Packet 0 is lost; packets 1..3 are delivered (cum stays 0).
  h.ack(1, 0, from_ms(40));
  h.ack(2, 0, from_ms(41));
  h.ack(3, 0, from_ms(42));
  h.sim.run_until(from_ms(43));
  ASSERT_EQ(h.cc->congestion_events.size(), 1u);
  EXPECT_EQ(h.cc->lost_bytes, kDefaultMss);
  // The retransmission of seq 0 must have been sent.
  bool retx_seen = false;
  for (const auto& p : h.wire) {
    if (p.seq == 0 && p.is_retransmit) retx_seen = true;
  }
  EXPECT_TRUE(retx_seen);
  EXPECT_EQ(h.sender->retransmit_count(), 1u);
}

TEST(Sender, TwoLaterDeliveriesDoNotMarkLoss) {
  Harness h;
  h.sender->start(0);
  h.ack(1, 0, from_ms(40));
  h.ack(2, 0, from_ms(41));
  h.sim.run_until(from_ms(42));
  EXPECT_TRUE(h.cc->congestion_events.empty());
  EXPECT_EQ(h.sender->retransmit_count(), 0u);
}

TEST(Sender, RetiredRetransmitEntryIsSkipped) {
  Harness h;
  h.cc->cwnd_bytes = 10 * kDefaultMss;
  h.sender->start(0);
  // Close the window so the lost packet's retransmit entry waits.
  h.sim.schedule_at(from_ms(39), [&h] { h.cc->cwnd_bytes = 0; });
  h.ack(1, 0, from_ms(40));
  h.ack(2, 0, from_ms(41));
  h.ack(3, 0, from_ms(42));  // seq 0 is marked lost and queued
  // The original arrives after all: seqs 0..3 retire, the entry is stale.
  h.ack(0, 4, from_ms(43));
  h.sim.schedule_at(from_ms(44),
                    [&h] { h.cc->cwnd_bytes = 10 * kDefaultMss; });
  h.ack(4, 5, from_ms(45));
  h.sim.run_until(from_ms(46));
  EXPECT_EQ(h.cc->lost_bytes, kDefaultMss);
  EXPECT_EQ(h.sender->retransmit_count(), 0u);
  for (const auto& p : h.wire) EXPECT_FALSE(p.is_retransmit) << p.seq;
  // The reopened window went to new data instead.
  ASSERT_GT(h.wire.size(), 10u);
  EXPECT_EQ(h.wire[10].seq, 10u);
}

TEST(Sender, OneCongestionEventPerLossRound) {
  Harness h;
  h.cc->cwnd_bytes = 10 * kDefaultMss;
  h.sender->start(0);
  // Packets 0 and 1 both lost; 2..5 delivered.
  h.ack(2, 0, from_ms(40));
  h.ack(3, 0, from_ms(41));
  h.ack(4, 0, from_ms(42));
  h.ack(5, 0, from_ms(43));
  h.sim.run_until(from_ms(44));
  EXPECT_EQ(h.cc->congestion_events.size(), 1u);
  EXPECT_EQ(h.cc->lost_bytes, 2 * kDefaultMss);
  EXPECT_EQ(h.sender->retransmit_count(), 2u);
}

TEST(Sender, RecoveryExitsAfterPostEpisodeDelivery) {
  Harness h;
  h.cc->cwnd_bytes = 10 * kDefaultMss;
  h.sender->start(0);
  h.ack(1, 0, from_ms(40));
  h.ack(2, 0, from_ms(41));
  h.ack(3, 0, from_ms(42));  // loss of 0 declared here, retx sent
  h.ack(4, 0, from_ms(43));
  h.sim.run_until(from_ms(44));
  ASSERT_GE(h.cc->acks.size(), 4u);
  EXPECT_TRUE(h.cc->acks[3].in_recovery);  // seq 4 was sent pre-episode
  // The retransmit of 0 was sent after the episode began; its delivery
  // (plus cum advance) ends recovery.
  const SeqNo retx_order_seq = 0;
  h.ack(retx_order_seq, 10, from_ms(80));
  h.sim.run_until(from_ms(81));
  EXPECT_FALSE(h.cc->acks.back().in_recovery);
}

TEST(Sender, RtoFiresWithoutAcks) {
  SenderConfig cfg;
  cfg.initial_rto = from_ms(500);
  Harness h{cfg};
  h.sender->start(0);
  h.sim.run_until(from_sec(2));
  EXPECT_GE(h.cc->rtos, 1);
  EXPECT_GE(h.sender->rto_count(), 1u);
  // Everything was marked lost and immediately retransmitted (the scripted
  // window allows it), so the packets are back in flight as retransmits.
  EXPECT_EQ(h.sender->inflight_bytes(), 10 * kDefaultMss);
  EXPECT_GE(h.sender->retransmit_count(), 10u);
}

TEST(Sender, RtoBacksOffExponentially) {
  SenderConfig cfg;
  cfg.initial_rto = from_ms(300);
  Harness h{cfg};
  h.cc->cwnd_bytes = kDefaultMss;  // single packet, never acked
  h.sender->start(0);
  h.sim.run_until(from_sec(3));
  // With 300 ms initial RTO and doubling: fires at ~0.3, 0.9, 2.1 s.
  EXPECT_EQ(h.sender->rto_count(), 3u);
}

TEST(Sender, RetransmissionsHavePriorityOverNewData) {
  Harness h;
  h.cc->cwnd_bytes = 4 * kDefaultMss;
  h.sender->start(0);
  h.ack(1, 0, from_ms(40));
  h.ack(2, 0, from_ms(41));
  h.ack(3, 0, from_ms(42));  // marks 0 lost
  h.sim.run_until(from_ms(43));
  // Timeline: cwnd 4 sends 0..3; acks of 1 and 2 release 4 and 5; the ack
  // of 3 marks 0 lost — the very next transmission must be the seq-0
  // retransmit, ahead of new data (seq 6).
  ASSERT_GE(h.wire.size(), 7u);
  EXPECT_EQ(h.wire[6].seq, 0u);
  EXPECT_TRUE(h.wire[6].is_retransmit);
}

TEST(Sender, MeasurementMarksSnapshotCounters) {
  Harness h;
  h.sender->start(0);
  h.ack(0, 1, from_ms(40));
  h.sim.run_until(from_ms(41));
  h.sender->begin_measurement();
  EXPECT_EQ(h.sender->delivered_at_measurement_start(), kDefaultMss);
  h.ack(1, 2, from_ms(50));
  h.sim.run_until(from_ms(51));
  EXPECT_EQ(h.sender->delivered_bytes() -
                h.sender->delivered_at_measurement_start(),
            kDefaultMss);
}

TEST(Sender, PriorDeliveredSnapshotsDriveRoundCounting) {
  Harness h;
  h.cc->cwnd_bytes = 2 * kDefaultMss;
  h.sender->start(0);
  h.ack(0, 1, from_ms(40));
  h.ack(1, 2, from_ms(41));
  h.sim.run_until(from_ms(45));
  ASSERT_EQ(h.cc->acks.size(), 2u);
  EXPECT_EQ(h.cc->acks[0].prior_delivered, 0);
  EXPECT_EQ(h.cc->acks[0].delivered, kDefaultMss);
  EXPECT_EQ(h.cc->acks[1].prior_delivered, 0);  // sent before any delivery
  EXPECT_EQ(h.cc->acks[1].delivered, 2 * kDefaultMss);
}

// --- Typed exit hop ---------------------------------------------------------

/// One transmission as the network saw it.
struct TxLog {
  TimeNs at;
  SeqNo seq;
  bool retx;
  bool operator==(const TxLog&) const = default;
};

/// A lossy 20 ms loopback behind the sender: it logs every transmission,
/// loses the first transmission of every 13th sequence number, and returns
/// each delivered packet's ACK from a Receiver.
struct LossyLoop {
  Simulator sim;
  Script script;
  Receiver receiver{0};
  std::vector<TxLog> log;
  std::function<void(const Ack&)> to_sender;

  LossyLoop() {
    receiver.set_ack_sink([this](const Ack& ack) {
      sim.schedule_in(from_ms(10), [this, ack] { to_sender(ack); });
    });
  }

  void carry(const Packet& pkt) {
    log.push_back(TxLog{sim.now(), pkt.seq, pkt.is_retransmit});
    if (!pkt.is_retransmit && pkt.seq % 13 == 5) return;
    sim.schedule_in(from_ms(10), [this, pkt] { receiver.on_packet(pkt, 0); });
  }
};

/// A concrete exit hop type, as the scenario runner plugs in.
struct RecordingSink {
  LossyLoop* loop;
  void operator()(const Packet& pkt) const { loop->carry(pkt); }
};

/// Runs 2 s of the loop behind a SenderT whose exit hop make_exit(&loop)
/// builds; returns the transmission log.
template <class SenderT, class MakeExit>
std::vector<TxLog> run_lossy_loop(BytesPerSec pacing, MakeExit make_exit) {
  LossyLoop loop;
  loop.script.cwnd_bytes = 20 * kDefaultMss;
  loop.script.pacing = pacing;
  SenderT sender{loop.sim, 0, SenderConfig{}, ScriptedCc{&loop.script},
                 make_exit(&loop)};
  loop.to_sender = [&sender](const Ack& ack) { sender.on_ack(ack); };
  sender.start(0);
  loop.sim.run_until(from_sec(2));
  return loop.log;
}

/// Runs the same script through a typed exit hop and through the default
/// std::function exit; the two transmission logs must be identical.
void expect_typed_exit_matches_std_function(BytesPerSec pacing) {
  const auto typed = run_lossy_loop<BasicSender<ScriptedCc, RecordingSink>>(
      pacing, [](LossyLoop* l) { return RecordingSink{l}; });
  const auto erased = run_lossy_loop<ScriptedSender>(
      pacing, [](LossyLoop* l) -> ScriptedSender::TransmitFn {
        return [l](const Packet& pkt) { l->carry(pkt); };
      });
  ASSERT_GT(typed.size(), 500u);
  std::size_t retx = 0;
  for (const TxLog& t : typed) retx += t.retx ? 1 : 0;
  EXPECT_GT(retx, 20u);
  EXPECT_EQ(typed, erased);
}

TEST(Sender, TypedExitTransmitsLikeStdFunctionUnpaced) {
  expect_typed_exit_matches_std_function(kNoPacing);
}

TEST(Sender, TypedExitTransmitsLikeStdFunctionPaced) {
  expect_typed_exit_matches_std_function(1.5e6);
}

}  // namespace
}  // namespace bbrnash
