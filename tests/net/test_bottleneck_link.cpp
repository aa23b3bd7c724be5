#include "net/bottleneck_link.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

Packet make_packet(FlowId flow, SeqNo seq, std::uint32_t wire = 1500) {
  Packet p;
  p.flow = flow;
  p.seq = seq;
  p.wire_bytes = wire;
  return p;
}

TEST(BottleneckLink, ServesAtLinkRate) {
  Simulator sim;
  // 1.5 MB/s: a 1500-byte packet serializes in exactly 1 ms.
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  std::vector<TimeNs> exits;
  link.set_sink([&](const Packet&) { exits.push_back(sim.now()); });
  link.send(make_packet(0, 1));
  link.send(make_packet(0, 2));
  link.send(make_packet(0, 3));
  sim.run();
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_EQ(exits[0], from_ms(1));
  EXPECT_EQ(exits[1], from_ms(2));
  EXPECT_EQ(exits[2], from_ms(3));
}

TEST(BottleneckLink, IdleThenBusyRestartsService) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  std::vector<TimeNs> exits;
  link.set_sink([&](const Packet&) { exits.push_back(sim.now()); });
  link.send(make_packet(0, 1));
  sim.run();
  // Second packet arrives after an idle gap.
  sim.schedule_at(from_ms(10), [&] { link.send(make_packet(0, 2)); });
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_EQ(exits[0], from_ms(1));
  EXPECT_EQ(exits[1], from_ms(11));
}

TEST(BottleneckLink, PreservesFifoAcrossFlows) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 2};
  std::vector<std::pair<FlowId, SeqNo>> order;
  link.set_sink(
      [&](const Packet& p) { order.emplace_back(p.flow, p.seq); });
  link.send(make_packet(0, 1));
  link.send(make_packet(1, 1));
  link.send(make_packet(0, 2));
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<FlowId, SeqNo>{0, 1}));
  EXPECT_EQ(order[1], (std::pair<FlowId, SeqNo>{1, 1}));
  EXPECT_EQ(order[2], (std::pair<FlowId, SeqNo>{0, 2}));
}

TEST(BottleneckLink, DropHookFiresOnOverflow) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 1500, 1};  // room for one packet
  int drops = 0;
  link.set_drop_hook([&](const Packet&) { ++drops; });
  EXPECT_TRUE(link.send(make_packet(0, 1)));
  EXPECT_FALSE(link.send(make_packet(0, 2)));
  EXPECT_EQ(drops, 1);
}

TEST(BottleneckLink, QueueIncludesInServicePacket) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 3000, 1};
  link.send(make_packet(0, 1));
  link.send(make_packet(0, 2));
  // Both fit (head is still accounted while serializing).
  EXPECT_EQ(link.queue().occupied_bytes(), 3000);
  EXPECT_FALSE(link.send(make_packet(0, 3)));
}

TEST(BottleneckLink, CountsBytesServedAndBusyTime) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  link.set_sink([](const Packet&) {});
  link.send(make_packet(0, 1));
  link.send(make_packet(0, 2));
  sim.run();
  EXPECT_EQ(link.bytes_served(), 3000);
  EXPECT_EQ(link.busy_time(), from_ms(2));
}

TEST(BottleneckLink, UtilizationUnderHalfLoad) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  link.set_sink([](const Packet&) {});
  // One packet every 2 ms against a 1 ms service time: 50% utilization.
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(from_ms(2 * i), [&link, i] {
      link.send(make_packet(0, static_cast<SeqNo>(i)));
    });
  }
  sim.run();
  EXPECT_EQ(link.busy_time(), from_ms(10));
  EXPECT_EQ(sim.now(), from_ms(19));
}

TEST(BottleneckLink, VariablePacketSizes) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  std::vector<TimeNs> exits;
  link.set_sink([&](const Packet&) { exits.push_back(sim.now()); });
  link.send(make_packet(0, 1, 750));   // 0.5 ms
  link.send(make_packet(0, 2, 3000));  // 2 ms
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_EQ(exits[0], from_us(500));
  EXPECT_EQ(exits[1], from_us(2500));
}

// A rate change takes effect at the next service start (the packet in
// service finishes at the old rate), and a later change back reuses the
// first rate's serialization time.
TEST(BottleneckLink, RateChangesApplyFromTheNextService) {
  Simulator sim;
  BottleneckLink link{sim, 1.5e6, 100000, 1};
  std::vector<TimeNs> exits;
  link.set_sink([&](const Packet&) { exits.push_back(sim.now()); });
  for (SeqNo s = 1; s <= 4; ++s) link.send(make_packet(0, s));
  sim.schedule_at(from_us(500), [&] { link.set_rate(0.75e6); });
  sim.schedule_at(from_ms(4), [&] { link.set_rate(1.5e6); });
  sim.run();
  ASSERT_EQ(exits.size(), 4u);
  EXPECT_EQ(exits[0], from_ms(1));  // started before the change
  EXPECT_EQ(exits[1], from_ms(3));  // 2 ms at half rate
  EXPECT_EQ(exits[2], from_ms(5));  // started at 3 ms, still half rate
  EXPECT_EQ(exits[3], from_ms(6));  // full rate again
  EXPECT_EQ(link.busy_time(), from_ms(6));
}

// A typed sink (any callable struct) receives packets exactly like the
// default std::function sink.
TEST(BottleneckLink, TypedSinkReceivesServedPackets) {
  struct Collect {
    std::vector<SeqNo>* seqs;
    void operator()(const Packet& p) const { seqs->push_back(p.seq); }
  };
  Simulator sim;
  std::vector<SeqNo> seqs;
  BasicBottleneckLink<Collect> link{sim, 1.5e6, 100000, 1};
  link.set_sink(Collect{&seqs});
  link.send(make_packet(0, 7));
  link.send(make_packet(0, 8));
  sim.run();
  EXPECT_EQ(seqs, (std::vector<SeqNo>{7, 8}));
  EXPECT_EQ(sim.now(), from_ms(2));
}

}  // namespace
}  // namespace bbrnash
