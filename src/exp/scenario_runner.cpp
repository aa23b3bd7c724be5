#include "exp/scenario_runner.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/dumbbell.hpp"
#include "sim/audit.hpp"
#include "sim/flight_recorder.hpp"
#include "sim/simulator.hpp"

namespace bbrnash {

const char* to_string(AqmKind kind) {
  switch (kind) {
    case AqmKind::kDropTail:
      return "droptail";
    case AqmKind::kRed:
      return "red";
    case AqmKind::kCoDel:
      return "codel";
  }
  assert(false && "unhandled AqmKind");
  return "?";
}

std::optional<AqmKind> parse_aqm(std::string_view name) {
  for (const AqmKind k : kAllAqmKinds) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

const char* to_string(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kAbortedEventBudget:
      return "aborted-event-budget";
    case RunStatus::kAbortedWallClock:
      return "aborted-wall-clock";
    case RunStatus::kInvariantViolation:
      return "invariant-violation";
    case RunStatus::kError:
      return "error";
  }
  assert(false && "unhandled RunStatus");
  return "?";
}

std::vector<RateChange> make_flap_schedule(TimeNs period, TimeNs down_for,
                                           BytesPerSec up_rate,
                                           BytesPerSec down_rate,
                                           TimeNs until) {
  if (period <= 0 || down_for <= 0 || down_for >= period) {
    throw std::invalid_argument{
        "flap schedule needs 0 < down_for < period"};
  }
  if (up_rate <= 0 || down_rate <= 0) {
    throw std::invalid_argument{"flap rates must be > 0"};
  }
  std::vector<RateChange> out;
  for (TimeNs t = period - down_for; t < until; t += period) {
    out.push_back({t, down_rate});
    out.push_back({t + down_for, up_rate});
  }
  return out;
}

void Scenario::validate() const {
  if (capacity <= 0) {
    throw std::invalid_argument{"scenario capacity must be > 0"};
  }
  if (buffer_bytes <= 0) {
    throw std::invalid_argument{"scenario buffer_bytes must be > 0"};
  }
  if (mss <= 0) throw std::invalid_argument{"scenario mss must be > 0"};
  if (mss > kMaxWireBytes - kHeaderBytes) {
    throw std::invalid_argument{"scenario mss must fit a packet's wire size"};
  }
  if (duration <= 0) {
    throw std::invalid_argument{"scenario duration must be > 0"};
  }
  if (warmup < 0) throw std::invalid_argument{"scenario warmup must be >= 0"};
  if (warmup >= duration) {
    throw std::invalid_argument{"warmup must end before the run does"};
  }
  if (start_jitter < 0) {
    throw std::invalid_argument{"scenario start_jitter must be >= 0"};
  }
  if (sample_period < 0) {
    throw std::invalid_argument{"scenario sample_period must be >= 0"};
  }
  if (bbr_cwnd_gain <= 0.0) {
    throw std::invalid_argument{"scenario bbr_cwnd_gain must be > 0"};
  }
  if (flows.empty()) {
    throw std::invalid_argument{"scenario needs at least one flow"};
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (f.base_rtt <= 0) {
      throw std::invalid_argument{"flow " + std::to_string(i) +
                                  ": base_rtt must be > 0"};
    }
    if (f.transfer_bytes < 0) {
      throw std::invalid_argument{"flow " + std::to_string(i) +
                                  ": transfer_bytes must be >= 0"};
    }
    if (f.impairments) f.impairments->validate();
  }
  impairments.validate();
  ack_impairments.validate();
  audit.validate();
  for (const RateChange& c : capacity_schedule) {
    if (c.at < 0) {
      throw std::invalid_argument{"capacity_schedule times must be >= 0"};
    }
    if (c.rate <= 0) {
      throw std::invalid_argument{
          "capacity_schedule rates must be > 0 (model outages as a deep "
          "rate reduction, not zero)"};
    }
  }
}

Scenario make_mix_scenario(const NetworkParams& net, int num_cubic,
                           int num_other, CcKind other) {
  net.validate();
  Scenario s;
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  for (int i = 0; i < num_cubic; ++i) {
    s.flows.push_back({CcKind::kCubic, net.base_rtt});
  }
  for (int i = 0; i < num_other; ++i) {
    s.flows.push_back({other, net.base_rtt});
  }
  return s;
}

namespace {

std::string format_bytes_violation(const char* what, double got,
                                   double bound) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s (got %.3f, bound %.3f)", what, got,
                bound);
  return buf;
}

/// Hands the heap a finished trial freed back to the OS. glibc gives each
/// thread its own arena and keeps freed memory there, so without the trim
/// the process would hold every pool worker's largest trial so far, not
/// just the trials running now. A no-op on other C libraries.
struct TrialHeapRelease {
  ~TrialHeapRelease() {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }
};

/// What one simulation attempt produced, before any retry policy.
struct ExecOutcome {
  RunStatus status = RunStatus::kOk;
  RunResult result;
  RunDiagnostics diagnostics;
  /// True when a chaos fault fired inside this attempt. Chaos faults are
  /// environmental, so the guarded runner redoes the attempt with the SAME
  /// seed instead of consuming a seed-bump retry.
  bool chaos_injected = false;
};

ExecOutcome execute_scenario(const Scenario& scenario,
                             const WatchdogConfig& watchdog,
                             ChaosInjector* chaos, FlightRecorder* recorder) {
  // Declared first, so it runs after the simulation below is destroyed,
  // on unwind too.
  TrialHeapRelease release_heap;
  const auto n = static_cast<std::uint32_t>(scenario.flows.size());
  Simulator sim;

  ExecOutcome out;

  // Conservation-audit ledger (only when the scenario asks for it; the
  // disabled path below is byte-for-byte the uninstrumented simulation).
  std::unique_ptr<ConservationAudit> audit;
  if (scenario.audit.enabled) {
    audit = std::make_unique<ConservationAudit>(scenario.audit, n);
  }
  ConservationAudit* audit_p = audit.get();

  // Chaos: forced trial exception / event-loop stall / wall stall, planned
  // up front so the fault schedule is a pure function of (chaos seed,
  // scenario seed). At most ONE class arms per attempt: each fault must
  // actually reach its own recovery mechanism (the stalls must genuinely
  // trip the watchdogs), which an earlier-in-the-run exception would mask.
  // Fire-once per site means the retry after each fault arms the next
  // class, so one guarded run walks every eligible class and then a clean
  // attempt.
  const std::string chaos_site = "seed=" + std::to_string(scenario.seed);
  const TimeNs chaos_at =
      std::max<TimeNs>(1, (scenario.warmup > 0 ? scenario.warmup
                                               : scenario.duration) /
                              2);
  std::function<void()> chaos_spinner;  // outlives every scheduled copy
  bool chaos_wall_stall = false;
  if (chaos != nullptr) {
    if (chaos->should_fire(ChaosClass::kTrialException,
                           "trial-exception " + chaos_site)) {
      out.chaos_injected = true;
      sim.schedule_at(chaos_at, [site = chaos_site] {
        throw ChaosFault{ChaosClass::kTrialException,
                         "trial-exception " + site};
      });
    } else if (watchdog.max_events > 0 &&
               chaos->should_fire(ChaosClass::kEventStall,
                                  "event-stall " + chaos_site)) {
      // An event stall is only injected when an event budget exists to
      // trip — otherwise it would spin forever.
      out.chaos_injected = true;
      chaos_spinner = [&sim, &chaos_spinner] {
        sim.schedule_in(1, chaos_spinner);
      };
      sim.schedule_at(chaos_at, chaos_spinner);
    } else if (watchdog.max_wall_seconds > 0.0 &&
               chaos->should_fire(ChaosClass::kWallStall,
                                  "wall-stall " + chaos_site)) {
      chaos_wall_stall = true;
      out.chaos_injected = true;
    }
  }

  Dumbbell db{sim, scenario, audit_p, recorder};
  auto& link = db.link();

  // Telemetry sampling.
  if (scenario.sample_period > 0 && scenario.on_sample) {
    for (TimeNs t = scenario.sample_period; t <= scenario.duration;
         t += scenario.sample_period) {
      sim.schedule_at(t, [&, t] {
        Snapshot snap;
        snap.t = t;
        snap.queue_bytes = link.queue().occupied_bytes();
        snap.total_drops = link.queue().total_drops();
        snap.bytes_served = link.bytes_served();
        snap.flows.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          FlowSnapshot fs;
          fs.cc = scenario.flows[i].cc;
          fs.cwnd = db.sender(i).cc().cwnd();
          fs.pacing_rate = db.sender(i).cc().pacing_rate();
          fs.inflight = db.sender(i).inflight_bytes();
          fs.delivered = db.sender(i).delivered_bytes();
          fs.queue_bytes = link.queue().flow_occupancy(i);
          fs.retransmits = db.sender(i).retransmit_count();
          fs.rtos = db.sender(i).rto_count();
          fs.smoothed_rtt = db.sender(i).smoothed_rtt();
          snap.flows.push_back(fs);
        }
        scenario.on_sample(snap);
      });
    }
  }

  // Audit sampling: read-only ledger checks at a fixed cadence. The sample
  // events never mutate simulation state, so an audited run produces
  // results bit-identical to an unaudited one.
  if (audit_p != nullptr) {
    for (TimeNs t = scenario.audit.sample_period; t <= scenario.duration;
         t += scenario.audit.sample_period) {
      // Six captures, so the sampler stays inside the event's inline
      // buffer (kEventInlineBytes) rather than being boxed.
      sim.schedule_at(t, [&sim, &db, &scenario, audit_p, recorder, t] {
        const DropTailQueue& queue = db.link().queue();
        AuditSample& smp = audit_p->sample_buffer();
        smp.t = t;
        smp.queue_bytes = queue.occupied_bytes();
        smp.buffer_bytes = scenario.buffer_bytes;
        smp.bytes_served = db.link().bytes_served();
        Bytes flow_bytes_sum = 0;
        for (std::uint32_t i = 0; i < scenario.flows.size(); ++i) {
          FlowAuditSample& f = smp.flows[i];
          f = FlowAuditSample{};
          f.injected = audit_p->injected(i);
          f.access_pending = audit_p->access_pending(i);
          if (const auto* stage = db.data_stage(i)) {
            const ImpairmentCounters& c = stage->counters();
            f.stage_dropped = c.dropped;
            f.stage_duplicated = c.duplicated;
            f.stage_pending = stage->pending();
          }
          f.queue_packets = queue.flow_packets(i);
          f.queue_dropped = queue.drops(i);
          f.fwd_pending = db.forward_path(i).pending();
          f.delivered = db.receiver(i).packets_received();
          f.acks_emitted = db.receiver(i).packets_received();
          if (const auto* stage = db.ack_stage(i)) {
            const ImpairmentCounters& c = stage->counters();
            f.ack_stage_dropped = c.dropped;
            f.ack_stage_duplicated = c.duplicated;
            f.ack_stage_pending = stage->pending();
          }
          f.rev_pending = db.reverse_path(i).pending();
          f.acks_received = db.sender(i).acks_received();
          f.cwnd = db.sender(i).cc().cwnd();
          f.pacing_rate = db.sender(i).cc().pacing_rate();
          f.srtt = db.sender(i).smoothed_rtt();
          f.base_rtt = scenario.flows[i].base_rtt;
          f.cum_next = db.receiver(i).cumulative_next();
          f.delivered_bytes = db.sender(i).delivered_bytes();
          f.retransmits = db.sender(i).retransmit_count();
          f.rtos = db.sender(i).rto_count();
          flow_bytes_sum += queue.flow_occupancy(i);
          if (recorder != nullptr) {
            recorder->note(t, FlightEventKind::kCcSnapshot, i,
                           static_cast<std::uint64_t>(f.cwnd),
                           f.srtt == kTimeNone
                               ? ~std::uint64_t{0}
                               : static_cast<std::uint64_t>(f.srtt));
          }
        }
        smp.queue_flow_bytes_sum = flow_bytes_sum;
        if (audit_p->check()) {
          if (recorder != nullptr) {
            recorder->note(t, FlightEventKind::kViolation, 0,
                           audit_p->violations().size());
          }
          // Stop promptly: the ledger is already inconsistent, so further
          // simulation adds noise, not information.
          sim.stop();
        }
      });
    }
  }

  // Begin measurement after warm-up.
  Bytes served_at_warmup = 0;
  sim.schedule_at(scenario.warmup, [&] {
    db.begin_measurement();
    served_at_warmup = link.bytes_served();
  });

  // Watchdog-sliced run loop. Slicing is observationally identical to one
  // run_until(duration) call — no event is added or reordered — it only
  // creates safe points to stop at.
  sim.set_event_budget(watchdog.max_events);
  const auto wall_start = std::chrono::steady_clock::now();
  const TimeNs slice = from_ms(500);
  for (TimeNs t = 0; t < scenario.duration;) {
    t = std::min<TimeNs>(t + slice, scenario.duration);
    sim.run_until(t);
    if (chaos_wall_stall) {
      // One-time injected wall stall: sleep past the watchdog deadline so
      // the wall-clock backstop below must fire.
      chaos_wall_stall = false;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          watchdog.max_wall_seconds * 1.25 + 0.05));
    }
    if (audit_p != nullptr && audit_p->violated()) {
      out.status = RunStatus::kInvariantViolation;
      out.diagnostics.message = audit_p->first_violation();
      break;
    }
    if (sim.budget_exhausted()) {
      out.status = RunStatus::kAbortedEventBudget;
      // The budget counts *executed* events; the backlog is every event
      // still queued, lane events included.
      out.diagnostics.message =
          "watchdog: event budget of " + std::to_string(watchdog.max_events) +
          " exhausted at simulated t=" + std::to_string(sim.now()) + " ns (" +
          std::to_string(sim.pending_events()) + " live events pending)";
      break;
    }
    if (watchdog.max_wall_seconds > 0.0) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (wall > watchdog.max_wall_seconds) {
        out.status = RunStatus::kAbortedWallClock;
        out.diagnostics.message =
            "watchdog: wall-clock limit of " +
            std::to_string(watchdog.max_wall_seconds) +
            " s exceeded at simulated t=" + std::to_string(sim.now()) + " ns";
        break;
      }
    }
  }

  // Collect. Aborted runs yield partial measurements (diagnostics only).
  link.queue().finalize(sim.now());
  const double window_sec =
      to_sec(std::max<TimeNs>(0, sim.now() - scenario.warmup));

  RunResult& res = out.result;
  res.flows.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FlowResult fr;
    fr.cc = scenario.flows[i].cc;
    fr.base_rtt = scenario.flows[i].base_rtt;

    const Dumbbell::FlowSender& s = db.sender(i);
    FlowStats st;
    st.goodput_bps =
        window_sec > 0.0
            ? static_cast<double>(s.delivered_bytes() -
                                  s.delivered_at_measurement_start()) /
                  window_sec
            : 0.0;
    st.avg_rtt_ms = s.rtt_stats().mean();
    st.min_rtt_ms = s.rtt_stats().min();
    st.max_rtt_ms = s.rtt_stats().max();
    st.retransmits = s.retransmit_count() - s.retransmits_at_measurement_start();
    st.rtos = s.rto_count() - s.rtos_at_measurement_start();
    st.avg_inflight_bytes = s.avg_inflight_bytes();
    st.completed_at = s.completed_at();
    st.avg_queue_occupancy_bytes = link.queue().avg_flow_occupancy(i);
    st.min_queue_occupancy_bytes = link.queue().min_flow_occupancy(i);
    st.max_queue_occupancy_bytes = link.queue().max_flow_occupancy(i);
    fr.stats = st;
    res.flows.push_back(fr);
  }

  res.avg_queue_bytes = link.queue().avg_occupied_bytes();
  res.avg_queue_delay_ms = to_ms(static_cast<TimeNs>(
      res.avg_queue_bytes / scenario.capacity * kNsPerSec));
  res.link_utilization =
      window_sec > 0.0
          ? static_cast<double>(link.bytes_served() - served_at_warmup) /
                (scenario.capacity * window_sec)
          : 0.0;
  res.total_drops = link.queue().total_drops();

  if (!db.cubic_flows().empty()) {
    res.cubic_buffer_avg = link.queue().group_avg_occupancy();
    res.cubic_buffer_min = link.queue().group_min_occupancy();
    res.cubic_buffer_max = link.queue().group_max_occupancy();
  }
  double noncubic_avg = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (scenario.flows[i].cc != CcKind::kCubic) {
      noncubic_avg += link.queue().avg_flow_occupancy(i);
    }
  }
  res.noncubic_buffer_avg = noncubic_avg;

  for (std::uint32_t i = 0; i < n; ++i) {
    if (const auto* stage = db.data_stage(i)) {
      const ImpairmentCounters& c = stage->counters();
      res.data_impairments.offered += c.offered;
      res.data_impairments.dropped += c.dropped;
      res.data_impairments.duplicated += c.duplicated;
      res.data_impairments.reordered += c.reordered;
    }
    if (const auto* stage = db.ack_stage(i)) {
      const ImpairmentCounters& c = stage->counters();
      res.ack_impairments.offered += c.offered;
      res.ack_impairments.dropped += c.dropped;
      res.ack_impairments.duplicated += c.duplicated;
      res.ack_impairments.reordered += c.reordered;
    }
  }

  out.diagnostics.events_executed = sim.events_executed();
  out.diagnostics.pending_events = sim.pending_events();  // live count
  out.diagnostics.sim_time_reached = sim.now();

  // End-of-run audit: per-flow goodput bounded by the peak bottleneck rate.
  if (audit_p != nullptr && out.status == RunStatus::kOk) {
    const double peak_bps = scenario.peak_capacity();
    for (std::uint32_t i = 0; i < n; ++i) {
      audit_p->check_final_goodput(i, res.flows[i].stats.goodput_bps,
                                   peak_bps);
    }
    if (audit_p->violated()) {
      out.status = RunStatus::kInvariantViolation;
      out.diagnostics.message = audit_p->first_violation();
    }
  }

  // Always-on invariant guards (promoted from test-only assertions).
  // Checked only for runs that completed: an aborted run is legitimately
  // partial and already carries its own diagnosis.
  if (out.status == RunStatus::kOk) {
    std::string violations;
    const auto add = [&violations](const std::string& v) {
      if (!violations.empty()) violations += "; ";
      violations += v;
    };
    const double peak_mbps = to_mbps(scenario.peak_capacity());
    const double total_mbps = res.total_goodput_all_mbps();
    if (total_mbps > peak_mbps * 1.05 + 1e-9) {
      add(format_bytes_violation(
          "conservation: sum of goodputs exceeds peak capacity (Mbps)",
          total_mbps, peak_mbps * 1.05));
    }
    if (link.queue().max_occupied_bytes() > scenario.buffer_bytes) {
      add(format_bytes_violation(
          "queue bound: occupancy exceeded the configured buffer (bytes)",
          static_cast<double>(link.queue().max_occupied_bytes()),
          static_cast<double>(scenario.buffer_bytes)));
    }
    if (sim.now() != scenario.duration) {
      add(format_bytes_violation(
          "clock: completed run did not reach the scenario duration (ns)",
          static_cast<double>(sim.now()),
          static_cast<double>(scenario.duration)));
    }
    if (!violations.empty()) {
      out.status = RunStatus::kInvariantViolation;
      out.diagnostics.message = violations;
    }
  }
  return out;
}

}  // namespace

namespace {

/// Per-attempt flight recorder, created only when the scenario asks for one.
std::unique_ptr<FlightRecorder> make_recorder(const Scenario& scenario) {
  if (scenario.audit.recorder_events == 0) return nullptr;
  return std::make_unique<FlightRecorder>(scenario.audit.recorder_events,
                                          scenario.audit.recorder_path);
}

}  // namespace

RunResult run_scenario(const Scenario& scenario) {
  scenario.validate();
  std::unique_ptr<FlightRecorder> recorder = make_recorder(scenario);
  ExecOutcome out;
  try {
    out = execute_scenario(scenario, WatchdogConfig{}, nullptr,
                           recorder.get());
  } catch (const std::exception& e) {
    if (recorder != nullptr) recorder->dump("exception", e.what(),
                                            scenario.seed);
    throw;
  }
  if (out.status == RunStatus::kInvariantViolation) {
    if (recorder != nullptr) {
      recorder->dump(to_string(out.status), out.diagnostics.message,
                     scenario.seed);
    }
    throw InvariantViolation{out.diagnostics.message};
  }
  return std::move(out.result);
}

RunOutcome run_scenario_guarded(const Scenario& scenario,
                                const GuardConfig& guard) {
  RunOutcome outcome;
  outcome.seed_used = scenario.seed;
  try {
    scenario.validate();
  } catch (const std::exception& e) {
    // Config errors are not retryable; report them once.
    outcome.status = RunStatus::kError;
    outcome.diagnostics.message = e.what();
    return outcome;
  }

  ChaosInjector* chaos = guard.chaos.get();
  const int max_attempts = std::max(1, guard.max_attempts);
  // Chaos redos are bounded by fire-once-per-site, but cap them anyway so a
  // future fault class that breaks that contract cannot loop forever.
  constexpr int kMaxChaosRedos = 16;
  int chaos_redos = 0;

  Scenario attempt = scenario;
  for (int i = 0; i < max_attempts;) {
    attempt.seed = scenario.seed + static_cast<std::uint64_t>(i) *
                                       guard.seed_bump;
    outcome.attempts = i + 1;
    outcome.seed_used = attempt.seed;
    const bool injected =
        std::find(guard.inject_failure_seeds.begin(),
                  guard.inject_failure_seeds.end(),
                  attempt.seed) != guard.inject_failure_seeds.end();
    if (injected) {
      outcome.status = RunStatus::kInvariantViolation;
      outcome.diagnostics = RunDiagnostics{};
      outcome.diagnostics.message =
          "injected failure for seed " + std::to_string(attempt.seed);
      ++i;
      continue;
    }
    std::unique_ptr<FlightRecorder> recorder = make_recorder(attempt);
    // Chaos faults are environmental (the experiment seed did nothing
    // wrong), so the attempt is redone with the SAME seed and without
    // consuming a retry: recovered outcomes — including the attempts
    // counter sweeps aggregate into trials_retried — stay bit-identical to
    // a fault-free run. Termination: each chaos site fires at most once.
    bool chaos_redo = false;
    try {
      const auto wall_start = std::chrono::steady_clock::now();
      ExecOutcome exec =
          execute_scenario(attempt, guard.watchdog, chaos, recorder.get());
      outcome.status = exec.status;
      outcome.result = std::move(exec.result);
      outcome.diagnostics = std::move(exec.diagnostics);
      outcome.diagnostics.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      chaos_redo =
          exec.status != RunStatus::kOk && exec.chaos_injected;
    } catch (const ChaosFault& e) {
      outcome.status = RunStatus::kError;
      outcome.diagnostics = RunDiagnostics{};
      outcome.diagnostics.message = e.what();
      chaos_redo = true;
    } catch (const std::exception& e) {
      outcome.status = RunStatus::kError;
      outcome.diagnostics = RunDiagnostics{};
      outcome.diagnostics.message = e.what();
    }
    if (!outcome.ok() && recorder != nullptr) {
      recorder->dump(outcome.status == RunStatus::kError
                         ? "exception"
                         : to_string(outcome.status),
                     outcome.diagnostics.message, attempt.seed);
    }
    if (chaos_redo && chaos_redos < kMaxChaosRedos) {
      ++chaos_redos;
      continue;  // same seed, same attempt index
    }
    if (outcome.ok()) break;
    ++i;
  }
  return outcome;
}

}  // namespace bbrnash
