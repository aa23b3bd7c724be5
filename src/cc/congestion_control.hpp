// The congestion-control vocabulary every algorithm shares.
//
// The Sender (src/flow/sender.hpp) owns reliability (loss detection,
// retransmission, RTO) and delivery-rate accounting; a CC algorithm
// consumes per-ACK AckEvents and congestion notifications and exposes two
// control outputs:
//   * cwnd()        — bytes allowed in flight (always enforced), and
//   * pacing_rate() — bytes/sec send gate (kNoPacing disables pacing).
// This mirrors how Linux TCP separates tcp_input.c from tcp_cong.c, and it
// lets window-based (CUBIC/Reno), rate-based (BBR, Vivace) and delay-based
// (Copa) algorithms share one transport. The per-callback contract lives
// with the dispatcher, CcVariant (cc/cc_variant.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "net/packet.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bbrnash {

/// Pacing disabled: the sender may transmit back-to-back up to cwnd.
inline constexpr BytesPerSec kNoPacing = 1e18;

/// The pacing burst (segments) of a kernel-TCP-like algorithm: Linux
/// releases TSO-sized bursts. Finely-measuring rate-based schemes (PCC,
/// Copa reference implementations run over UDP) pace per packet instead to
/// keep their RTT telemetry clean.
inline constexpr int kTsoBurstSegments = 4;

/// Everything a CC algorithm may want to know about one acknowledgement.
/// Field semantics follow the Linux rate-sample infrastructure (tcp_rate.c)
/// that BBR's bandwidth estimation is defined against.
struct AckEvent {
  TimeNs now = 0;
  TimeNs rtt = kTimeNone;          ///< RTT of the newly acked packet; kTimeNone if untimed
  Bytes acked_bytes = 0;           ///< bytes newly delivered by this ACK
  Bytes delivered = 0;             ///< lifetime delivered bytes after this ACK
  Bytes prior_delivered = 0;       ///< `delivered` when the acked packet was sent
                                   ///< (drives BBR's round-trip counting)
  BytesPerSec delivery_rate = 0;   ///< measured delivery rate sample (0 = none)
  bool rate_app_limited = false;   ///< sample taken while app-limited
  Bytes inflight = 0;              ///< bytes in flight after this ACK
  bool in_recovery = false;        ///< sender is in a loss-recovery episode
};

/// A congestion notification. The sender raises exactly one per recovery
/// episode ("loss round"), matching how tcp_input.c invokes ssthresh().
struct LossEvent {
  TimeNs now = 0;
  Bytes inflight = 0;       ///< bytes in flight when the episode began
  Bytes lost_bytes = 0;     ///< bytes declared lost so far in this episode
  Bytes delivered = 0;      ///< lifetime delivered bytes
};

/// The algorithms this repository implements.
enum class CcKind { kCubic, kReno, kBbr, kBbrV2, kCopa, kVivace };

inline constexpr CcKind kAllCcKinds[] = {CcKind::kCubic, CcKind::kReno,
                                         CcKind::kBbr,   CcKind::kBbrV2,
                                         CcKind::kCopa,  CcKind::kVivace};

[[nodiscard]] const char* to_string(CcKind kind);
/// The kind whose to_string is `name`; nullopt for any other name.
[[nodiscard]] std::optional<CcKind> parse_cc_kind(std::string_view name);

/// Common knobs shared by all algorithms.
struct CcConfig {
  Bytes mss = kDefaultMss;               ///< payload bytes per packet
  Bytes wire_mtu = kDefaultMss + kHeaderBytes;
  Bytes initial_cwnd = 10 * kDefaultMss; ///< RFC 6928 initial window
  std::uint64_t seed = 1;                ///< per-flow RNG stream (BBR cycle phase)
  /// BBR-family ProbeBW cwnd gain. 2.0 is the standard value and the
  /// paper's assumption 2; the inflight-cap ablation bench varies it.
  double bbr_cwnd_gain = 2.0;
};

}  // namespace bbrnash
