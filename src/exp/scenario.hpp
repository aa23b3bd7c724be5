// Scenario: a complete description of one dumbbell experiment.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "cc/congestion_control.hpp"
#include "exp/telemetry.hpp"
#include "model/network_params.hpp"
#include "net/impairment.hpp"
#include "net/packet.hpp"
#include "sim/audit.hpp"
#include "util/units.hpp"

namespace bbrnash {

/// Bottleneck queue discipline for a scenario.
enum class AqmKind { kDropTail, kRed, kCoDel };

/// All queue disciplines, in a fixed order — the single source for
/// round-tripping names between the CLI, the benches and the tests.
inline constexpr AqmKind kAllAqmKinds[] = {AqmKind::kDropTail, AqmKind::kRed,
                                           AqmKind::kCoDel};

[[nodiscard]] const char* to_string(AqmKind kind);
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<AqmKind> parse_aqm(std::string_view name);

/// One step of a bottleneck rate schedule (link flaps, diurnal profiles).
struct RateChange {
  TimeNs at = 0;           ///< absolute simulated time
  BytesPerSec rate = 0;    ///< new service rate, must be > 0
};

/// A square-wave link flap: capacity drops to `down_rate` for `down_for`
/// out of every `period`, starting at t = period - down_for, until `until`.
[[nodiscard]] std::vector<RateChange> make_flap_schedule(
    TimeNs period, TimeNs down_for, BytesPerSec up_rate, BytesPerSec down_rate,
    TimeNs until);

struct FlowSpec {
  CcKind cc = CcKind::kCubic;
  TimeNs base_rtt = from_ms(40);
  /// 0 = unbounded bulk flow; otherwise a finite transfer of this size.
  Bytes transfer_bytes = 0;
  /// Explicit start time; kTimeNone = start at t ~ U[0, start_jitter).
  TimeNs start_at = kTimeNone;
  /// Per-flow data-path impairments; overrides Scenario::impairments when
  /// set (e.g. one lossy access link in an otherwise clean population).
  std::optional<ImpairmentConfig> impairments{};
};

struct Scenario {
  BytesPerSec capacity = mbps(100);
  Bytes buffer_bytes = 0;
  std::vector<FlowSpec> flows;
  TimeNs duration = from_sec(30);   ///< total simulated time
  TimeNs warmup = from_sec(6);      ///< excluded from all averages
  TimeNs start_jitter = from_ms(100);  ///< flows start uniform in [0, jitter)
  /// Per-packet random delay on the sender->bottleneck access path,
  /// uniform in [0, access_jitter). Defaults (when negative) to one
  /// bottleneck packet serialization time. Deterministic drop-tail
  /// simulations otherwise phase-lock: a short-RTT flow's ack-clocked
  /// window increments always arrive exactly when the queue is full and
  /// soak up ALL the drops (Floyd & Jacobson's "phase effects"); real
  /// testbeds have enough cross-traffic/OS noise to break this.
  TimeNs access_jitter = -1;
  Bytes mss = kDefaultMss;
  std::uint64_t seed = 1;
  /// Ablation knob: BBR-family cwnd gain (paper assumption 2 uses 2.0).
  double bbr_cwnd_gain = 2.0;

  /// Telemetry: when both are set, `on_sample` receives a Snapshot every
  /// `sample_period` of simulated time (starting at t = sample_period).
  TimeNs sample_period = 0;
  SampleFn on_sample;

  /// Queue discipline at the bottleneck (default: the paper's drop-tail).
  AqmKind aqm = AqmKind::kDropTail;

  /// Data-path impairments applied to every flow without a per-flow
  /// override (pristine by default — the paper's assumption).
  ImpairmentConfig impairments;
  /// ACK-path impairments (all flows; the paper's reverse path is clean).
  ImpairmentConfig ack_impairments;
  /// Bottleneck rate schedule; empty = constant `capacity`. Entries are
  /// applied at their absolute times (need not be sorted).
  std::vector<RateChange> capacity_schedule;

  /// Conservation audit + crash flight recorder (--audit). Instrumentation
  /// is installed only when audit.active(), so the default leaves the
  /// zero-allocation hot path untouched.
  AuditConfig audit;

  /// Only for bench/e2e's mirror guard; drop it in the next benchmark change.
  static constexpr bool virtual_cc_dispatch = false;

  [[nodiscard]] int count(CcKind kind) const {
    int n = 0;
    for (const auto& f : flows) n += (f.cc == kind) ? 1 : 0;
    return n;
  }

  /// Largest service rate the bottleneck ever runs at (the capacity bound
  /// the conservation invariant checks against).
  [[nodiscard]] BytesPerSec peak_capacity() const {
    BytesPerSec peak = capacity;
    for (const auto& c : capacity_schedule) {
      if (c.rate > peak) peak = c.rate;
    }
    return peak;
  }

  /// Rejects ill-formed scenarios with a clear message
  /// (std::invalid_argument) instead of a deep-in-simulation assertion:
  /// non-positive duration/mss/capacity/buffer, warmup >= duration, empty
  /// flows, bad impairment probabilities, non-positive scheduled rates.
  void validate() const;
};

/// The paper's standard setup: `num_cubic` + `num_other` flows with one
/// shared base RTT through (C, B). `other` defaults to BBR.
Scenario make_mix_scenario(const NetworkParams& net, int num_cubic,
                           int num_other, CcKind other = CcKind::kBbr);

}  // namespace bbrnash
