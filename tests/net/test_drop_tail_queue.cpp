#include "net/drop_tail_queue.hpp"

#include <cstdint>

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

TEST(DropTailQueue, RejectsNonPositiveCapacity) {
  EXPECT_THROW(DropTailQueue(0, 1), std::invalid_argument);
  EXPECT_THROW(DropTailQueue(-5, 1), std::invalid_argument);
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q{10000, 1};
  q.enqueue(make_packet(0, 1), 0);
  q.enqueue(make_packet(0, 2), 1);
  q.enqueue(make_packet(0, 3), 2);
  EXPECT_EQ(q.dequeue(3).seq, 1u);
  EXPECT_EQ(q.dequeue(4).seq, 2u);
  EXPECT_EQ(q.dequeue(5).seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q{10000, 2};
  q.enqueue(make_packet(0, 1, 1500), 0);
  q.enqueue(make_packet(1, 1, 500), 0);
  EXPECT_EQ(q.occupied_bytes(), 2000);
  EXPECT_EQ(q.flow_occupancy(0), 1500);
  EXPECT_EQ(q.flow_occupancy(1), 500);
  q.dequeue(1);
  EXPECT_EQ(q.occupied_bytes(), 500);
  EXPECT_EQ(q.flow_occupancy(0), 0);
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q{3000, 1};
  EXPECT_TRUE(q.enqueue(make_packet(0, 1), 0));
  EXPECT_TRUE(q.enqueue(make_packet(0, 2), 0));
  EXPECT_FALSE(q.enqueue(make_packet(0, 3), 0));  // 4500 > 3000
  EXPECT_EQ(q.total_drops(), 1u);
  EXPECT_EQ(q.drops(0), 1u);
  EXPECT_EQ(q.packet_count(), 2u);
}

TEST(DropTailQueue, ExactFitAccepted) {
  DropTailQueue q{3000, 1};
  EXPECT_TRUE(q.enqueue(make_packet(0, 1), 0));
  EXPECT_TRUE(q.enqueue(make_packet(0, 2), 0));  // exactly 3000
  EXPECT_EQ(q.occupied_bytes(), 3000);
}

TEST(DropTailQueue, StampsEnqueueTime) {
  DropTailQueue q{10000, 1};
  q.enqueue(make_packet(0, 1), from_ms(7));
  EXPECT_EQ(q.front().enqueued_at, from_ms(7));
}

TEST(DropTailQueue, RejectsUnknownFlow) {
  DropTailQueue q{10000, 2};
  EXPECT_THROW(q.enqueue(make_packet(5, 1), 0), std::out_of_range);
}

TEST(DropTailQueue, DequeueEmptyThrows) {
  DropTailQueue q{10000, 1};
  EXPECT_THROW(q.dequeue(0), std::logic_error);
}

TEST(DropTailQueue, TimeWeightedTotalAverage) {
  DropTailQueue q{100000, 1};
  // 1500 bytes from t=0s to t=1s, 3000 from 1s to 2s, drain at 2s.
  q.enqueue(make_packet(0, 1), from_sec(0));
  q.enqueue(make_packet(0, 2), from_sec(1));
  q.dequeue(from_sec(2));
  q.dequeue(from_sec(2));
  q.finalize(from_sec(2));
  EXPECT_NEAR(q.avg_occupied_bytes(), (1500.0 + 3000.0) / 2.0, 1.0);
}

TEST(DropTailQueue, PerFlowAverageIsolated) {
  DropTailQueue q{100000, 2};
  q.enqueue(make_packet(0, 1), from_sec(0));  // flow 0: 1500 for 2s
  q.enqueue(make_packet(1, 1), from_sec(1));  // flow 1: 1500 for 1s
  q.dequeue(from_sec(2));
  q.dequeue(from_sec(2));
  q.finalize(from_sec(2));
  EXPECT_NEAR(q.avg_flow_occupancy(0), 1500.0, 1.0);
  EXPECT_NEAR(q.avg_flow_occupancy(1), 750.0, 1.0);
}

TEST(DropTailQueue, MinMaxPerFlowTracking) {
  DropTailQueue q{100000, 1};
  q.begin_measurement(0);
  q.enqueue(make_packet(0, 1), 1);
  q.enqueue(make_packet(0, 2), 2);
  q.dequeue(3);
  q.dequeue(4);
  EXPECT_EQ(q.min_flow_occupancy(0), 0);
  EXPECT_EQ(q.max_flow_occupancy(0), 3000);
}

TEST(DropTailQueue, BeginMeasurementResetsExtremes) {
  DropTailQueue q{100000, 1};
  q.enqueue(make_packet(0, 1), 0);
  q.enqueue(make_packet(0, 2), 1);
  q.begin_measurement(2);
  // After reset, extremes re-seed from current state (3000 bytes).
  EXPECT_EQ(q.min_flow_occupancy(0), 3000);
  EXPECT_EQ(q.max_flow_occupancy(0), 3000);
  q.dequeue(3);
  EXPECT_EQ(q.min_flow_occupancy(0), 1500);
}

TEST(DropTailQueue, GroupTracking) {
  DropTailQueue q{100000, 3};
  q.track_group({0, 2});
  q.enqueue(make_packet(0, 1), 0);
  q.enqueue(make_packet(1, 1), 0);  // not in group
  q.enqueue(make_packet(2, 1), 0);
  EXPECT_EQ(q.group_max_occupancy(), 3000);
  // The group minimum starts at the occupancy when track_group was called
  // (zero here); begin_measurement() re-seeds it for measurement windows.
  EXPECT_EQ(q.group_min_occupancy(), 0);
  q.begin_measurement(1);
  q.dequeue(1);  // flow 0 leaves
  q.dequeue(1);  // flow 1 leaves (no group change)
  EXPECT_EQ(q.group_min_occupancy(), 1500);
}

TEST(DropTailQueue, GroupAverageMatchesHandComputation) {
  DropTailQueue q{100000, 2};
  q.track_group({1});
  q.enqueue(make_packet(1, 1), from_sec(0));
  q.dequeue(from_sec(4));
  q.finalize(from_sec(4));
  EXPECT_NEAR(q.group_avg_occupancy(), 1500.0, 1.0);
}

TEST(DropTailQueue, DropsDoNotPerturbOccupancy) {
  DropTailQueue q{1500, 1};
  q.enqueue(make_packet(0, 1), 0);
  const Bytes before = q.occupied_bytes();
  q.enqueue(make_packet(0, 2), 1);  // dropped
  EXPECT_EQ(q.occupied_bytes(), before);
  EXPECT_EQ(q.total_drops(), 1u);
}

}  // namespace
}  // namespace bbrnash
