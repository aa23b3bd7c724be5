// Congestion-control dispatch: the one way a Sender calls its algorithm.
//
// The Sender's hot loop consults its CC several times per ACK (cwnd,
// pacing_rate, pacing_burst_segments, on_ack). CcVariant holds one of the
// seven concrete algorithms *by value* in a std::variant and dispatches
// with a switch on the variant index, so every member call resolves to a
// direct call on the concrete type that the optimizer can inline into the
// transport. There is no base class: each algorithm declares every
// callback below itself, and the unconditional calls in dispatch() check
// those signatures at compile time.
//
// Adding CCA #8: see DESIGN.md §6a — implement the class with every
// callback below, append it to the Var alternative list and add a case
// label to dispatch(), and extend make_cc_variant in factory.cpp.
#pragma once

#include <utility>
#include <variant>

#include "cc/bbr.hpp"
#include "cc/bbrv2.hpp"
#include "cc/congestion_control.hpp"
#include "cc/copa.hpp"
#include "cc/cubic.hpp"
#include "cc/reno.hpp"
#include "cc/vegas.hpp"
#include "cc/vivace.hpp"

namespace bbrnash {

class CcVariant {
  using Var = std::variant<Cubic, Reno, Bbr, BbrV2, Copa, Vivace, Vegas>;

  /// Switch-on-index dispatch (instead of std::visit's function-pointer
  /// table) so each arm is a direct call the optimizer inlines into the
  /// sender hot loop. `Self` is CcVariant or const CcVariant. Defined
  /// before all uses: the deduced (decltype(auto)) return type must be
  /// resolvable at each call.
  template <typename Self, typename F>
  static decltype(auto) dispatch(Self& self, F&& f) {
    switch (self.v_.index()) {
      case 0: return f(*std::get_if<0>(&self.v_));
      case 1: return f(*std::get_if<1>(&self.v_));
      case 2: return f(*std::get_if<2>(&self.v_));
      case 3: return f(*std::get_if<3>(&self.v_));
      case 4: return f(*std::get_if<4>(&self.v_));
      case 5: return f(*std::get_if<5>(&self.v_));
      default: return f(*std::get_if<6>(&self.v_));
    }
  }

  Var v_;

 public:
  explicit CcVariant(Cubic cc) : v_(std::move(cc)) {}
  explicit CcVariant(Reno cc) : v_(std::move(cc)) {}
  explicit CcVariant(Bbr cc) : v_(std::move(cc)) {}
  explicit CcVariant(BbrV2 cc) : v_(std::move(cc)) {}
  explicit CcVariant(Copa cc) : v_(std::move(cc)) {}
  explicit CcVariant(Vivace cc) : v_(std::move(cc)) {}
  explicit CcVariant(Vegas cc) : v_(std::move(cc)) {}

  CcVariant(CcVariant&&) = default;
  CcVariant& operator=(CcVariant&&) = default;

  /// Called once before the first transmission.
  void on_start(TimeNs now) {
    dispatch(*this, [&](auto& c) { c.on_start(now); });
  }
  /// Called for every ACK that newly delivers data.
  void on_ack(const AckEvent& ev) {
    dispatch(*this, [&](auto& c) { c.on_ack(ev); });
  }
  /// Called once when a recovery episode begins (fast retransmit).
  void on_congestion_event(const LossEvent& ev) {
    dispatch(*this, [&](auto& c) { c.on_congestion_event(ev); });
  }
  /// Called per individual lost packet (some CCAs, e.g. BBRv2's
  /// inflight_hi bookkeeping, care about loss volume, not just episodes).
  void on_packet_lost(TimeNs now, Bytes lost_bytes, Bytes inflight) {
    dispatch(*this,
             [&](auto& c) { c.on_packet_lost(now, lost_bytes, inflight); });
  }
  /// Called when the retransmission timer fires (all inflight presumed
  /// lost).
  void on_rto(TimeNs now) {
    dispatch(*this, [&](auto& c) { c.on_rto(now); });
  }
  /// Congestion window in bytes. The sender enforces
  /// inflight + next_packet <= cwnd().
  [[nodiscard]] Bytes cwnd() const {
    return dispatch(*this, [](const auto& c) { return c.cwnd(); });
  }
  /// Pacing gate in bytes/sec (kNoPacing = unpaced).
  [[nodiscard]] BytesPerSec pacing_rate() const {
    return dispatch(*this, [](const auto& c) { return c.pacing_rate(); });
  }
  /// Largest pacing burst (segments) the algorithm tolerates
  /// (kTsoBurstSegments for kernel-TCP-like ones).
  [[nodiscard]] int pacing_burst_segments() const {
    return dispatch(*this,
                    [](const auto& c) { return c.pacing_burst_segments(); });
  }

  /// The held algorithm as its concrete type, for introspection (tests,
  /// traces). Throws std::bad_variant_access when it holds another one.
  template <typename T>
  [[nodiscard]] const T& get() const {
    return std::get<T>(v_);
  }
};

/// Creates the CC instance of the given kind.
[[nodiscard]] CcVariant make_cc_variant(CcKind kind, const CcConfig& cfg);

}  // namespace bbrnash
