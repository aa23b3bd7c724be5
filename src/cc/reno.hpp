// TCP NewReno (RFC 5681/6582): the historical baseline CUBIC replaced.
// Included for the paper's §1/§5 narrative (CUBIC-vs-NewReno transition)
// and used by the ablation examples.
#pragma once

#include "cc/congestion_control.hpp"

namespace bbrnash {

struct RenoConfig {
  Bytes mss = kDefaultMss;
  Bytes initial_cwnd = 10 * kDefaultMss;
  Bytes min_cwnd = 2 * kDefaultMss;
};

class Reno {
 public:
  explicit Reno(const RenoConfig& cfg = {});

  void on_start(TimeNs now);
  void on_ack(const AckEvent& ev);
  void on_congestion_event(const LossEvent& ev);
  void on_packet_lost(TimeNs, Bytes, Bytes) {}
  void on_rto(TimeNs now);

  [[nodiscard]] Bytes cwnd() const { return cwnd_; }
  [[nodiscard]] BytesPerSec pacing_rate() const { return kNoPacing; }
  [[nodiscard]] int pacing_burst_segments() const { return kTsoBurstSegments; }

  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  RenoConfig cfg_;
  Bytes cwnd_ = 0;
  Bytes ssthresh_ = 0;
  Bytes ack_credit_ = 0;  ///< congestion-avoidance byte counter
};

}  // namespace bbrnash
