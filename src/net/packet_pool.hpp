// PacketRing: the recycled packet store for network pipeline elements.
//
// Packets in this simulator are small trivially-copyable values, so the
// classic pointer-based free-list pool degenerates into something simpler
// and faster: a RingDeque of packets (util/ring_deque.hpp), whose slots
// are recycled in place. A dequeue frees the head slot and an enqueue
// reuses the tail's; a segment the head has left is the first one the
// tail takes when it needs another, before anything new is allocated.
// So once a queue reaches its high-water occupancy (bounded by the buffer
// size B), the per-packet path performs ZERO heap allocations, and the
// store holds only the segments that occupancy needed, grown one segment
// at a time as the queue first filled, without copying. std::deque, by
// contrast, allocated and released a ~512-byte node for every handful of
// packets, which showed up as the dominant allocation source in the
// bottleneck hot path.
//
// Used by DropTailQueue (and available to any AQM variant that stores
// packets). DelayLine and ImpairmentStage do not store packets at all:
// their in-flight copies ride inside pooled event records
// (see sim/event_queue.hpp), which is the same recycling idea applied to
// the event heap.
#pragma once

#include "net/packet.hpp"
#include "util/ring_deque.hpp"

namespace bbrnash {

using PacketRing = RingDeque<Packet>;

}  // namespace bbrnash
