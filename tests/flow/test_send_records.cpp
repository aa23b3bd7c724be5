// The sender's compact per-packet records: their footprint, the sequence
// residue codec, and the guards that keep each narrowed field exact.
#include "flow/send_records.hpp"

#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace bbrnash {
namespace {

// What a deep queue and a sender's span are made of.
static_assert(sizeof(Packet) == 32);
static_assert(sizeof(TxRecord) == 32);
static_assert(sizeof(decltype(SeqResidue::encode(SeqNo{0}))) == 4,
              "send-order and retransmit entries are 4 bytes");

constexpr SeqNo kWrap = SeqNo{1} << 31;

TEST(SeqResidue, RoundTripsAcrossTheWrap) {
  // Bases just below a multiple of 2^31 (and of 2^32, where the residue's
  // base truncation wraps too), with sequence numbers on both sides.
  for (const SeqNo base : {SeqNo{0}, kWrap - 5, 2 * kWrap - 3, 5 * kWrap - 1,
                           (SeqNo{1} << 40) + 17}) {
    for (const SeqNo offset : {SeqNo{0}, SeqNo{1}, SeqNo{4}, SeqNo{6},
                               SeqNo{1000}, kWrap - 2, kWrap - 1}) {
      const SeqNo seq = base + offset;
      EXPECT_EQ(SeqResidue::decode(SeqResidue::encode(seq), base), seq)
          << "base " << base << " offset " << offset;
    }
  }
}

TEST(SeqResidue, ResiduesNeverSetTheTombstoneBit) {
  for (const SeqNo seq : {SeqNo{0}, kWrap - 1, kWrap, 2 * kWrap + 9,
                          ~SeqNo{0}}) {
    EXPECT_EQ(SeqResidue::encode(seq) & ~SeqResidue::kMask, 0u);
  }
}

TEST(SeqResidue, StaleEntryBelowTheBaseDecodesToNoRecord) {
  // A retransmit entry for `seq` whose record was retired: the base has
  // moved past it. The records span [base, next); while next - seq stays
  // within 2^31 the entry decodes at or past `next`, so no record matches.
  for (const SeqNo seq : {SeqNo{0}, SeqNo{7}, kWrap - 2, 3 * kWrap + 11}) {
    for (const SeqNo retired : {SeqNo{1}, SeqNo{5}, SeqNo{4096}}) {
      const SeqNo base = seq + retired;
      for (const SeqNo span : {SeqNo{0}, SeqNo{3}, kWrap - retired}) {
        const SeqNo next = base + span;
        ASSERT_LE(next - seq, kWrap);
        const SeqNo decoded = SeqResidue::decode(SeqResidue::encode(seq), base);
        EXPECT_GE(decoded, next) << "seq " << seq << " base " << base;
        EXPECT_EQ(decoded, seq + kWrap);
      }
    }
  }
}

TEST(SeqResidue, SpanGuardThrowsAtTheResidueRange) {
  EXPECT_NO_THROW(SeqResidue::check_span(0));
  EXPECT_NO_THROW(SeqResidue::check_span(SeqResidue::kMask - 1));
  EXPECT_THROW(SeqResidue::check_span(SeqResidue::kMask), std::length_error);
  EXPECT_THROW(SeqResidue::check_span(std::size_t{1} << 40),
               std::length_error);
}

TEST(TxRecord, OrderStateAndKarnBitShareOneWord) {
  TxRecord rec;
  rec.sent(5, false);
  EXPECT_EQ(rec.send_order(), 5u);
  EXPECT_EQ(rec.state(), TxState::kInflight);
  EXPECT_FALSE(rec.retransmitted());
  rec.set_state(TxState::kLost);
  EXPECT_EQ(rec.state(), TxState::kLost);
  EXPECT_EQ(rec.send_order(), 5u);
  rec.sent(9, true);
  EXPECT_EQ(rec.send_order(), 9u);
  EXPECT_EQ(rec.state(), TxState::kInflight);
  EXPECT_TRUE(rec.retransmitted());
  rec.sent(12, false);  // the Karn flag is sticky
  EXPECT_TRUE(rec.retransmitted());
  rec.set_state(TxState::kDelivered);
  EXPECT_EQ(rec.state(), TxState::kDelivered);
  EXPECT_EQ(rec.send_order(), 12u);
}

TEST(TxRecord, SendOrderGuardThrowsPastItsBits) {
  TxRecord rec;
  rec.sent(TxRecord::kMaxOrder, true);
  EXPECT_EQ(rec.send_order(), TxRecord::kMaxOrder);
  EXPECT_TRUE(rec.retransmitted());
  EXPECT_EQ(rec.state(), TxState::kInflight);
  EXPECT_THROW(rec.sent(TxRecord::kMaxOrder + 1, false), std::length_error);
  EXPECT_EQ(TxRecord::kMaxOrder, (std::uint64_t{1} << 29) - 1);
}

TEST(TxRecord, DeliveredGuardThrowsPastThirtyTwoBits) {
  TxRecord rec;
  rec.snapshot_delivered(TxRecord::kMaxDeliveredPkts);
  EXPECT_EQ(rec.delivered_pkts_at_send, 0xFFFFFFFFu);
  EXPECT_THROW(rec.snapshot_delivered(TxRecord::kMaxDeliveredPkts + 1),
               std::length_error);
}

TEST(OrderWindow, FrontSeqDecodesAcrossTheWrap) {
  // Sequence numbers crossing a multiple of 2^31, sent out of sequence
  // order (retransmissions take later orders).
  const SeqNo base = 4 * kWrap - 3;
  const SeqNo seqs[] = {base + 2, base, base + 4, base + 3, base + 1};
  OrderWindow w;
  EXPECT_TRUE(w.empty());
  std::uint64_t order = 1;
  for (const SeqNo s : seqs) w.insert(order++, s);
  EXPECT_EQ(w.front_order(), 1u);
  EXPECT_EQ(w.front_seq(base), base + 2);
  w.erase(2);  // a tombstone behind a live front
  EXPECT_EQ(w.front_seq(base), base + 2);
  w.erase(1);  // the base advances past both
  EXPECT_EQ(w.front_order(), 3u);
  EXPECT_EQ(w.front_seq(base), base + 4);
  w.erase(1);   // absent: a no-op
  w.erase(99);  // beyond the back: a no-op
  EXPECT_EQ(w.front_order(), 3u);
  w.erase(3);
  w.erase(4);
  EXPECT_EQ(w.front_seq(base), base + 1);
  w.erase(5);
  EXPECT_TRUE(w.empty());
}

}  // namespace
}  // namespace bbrnash
