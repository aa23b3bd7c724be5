// bench_perf_simcore: the simulator-core performance harness.
//
// Every paper figure is produced by sweeps that push hundreds of millions
// of packet events through the discrete-event core, so the per-event cost
// is the scale knob that matters once cells already run in parallel. This
// harness pins that cost down: it builds four representative scenarios on
// the production dumbbell (exp/dumbbell.hpp), pre-sized with
// Dumbbell::reserve() and with no sweep/checkpoint machinery in the way,
// runs each one, and reports
//   * events/sec and ns/event over the steady-state window (post-warmup),
//   * allocations per event in steady state (via the counting-allocator
//     hook in src/util/alloc_counter.*) — the pooled event core must hold
//     this at exactly zero,
//   * the bytes requested from operator new from building the dumbbell
//     through warm-up (per-flow state plus the pools' high-water sizes;
//     deterministic, like the allocation counts),
//   * packet throughput as a sanity anchor.
//
// Scenarios: 2-flow (the paper's Fig. 3 shape), 50-flow (Fig. 9 shape, the
// acceptance scenario), impaired (loss + jitter + reordering exercises the
// retransmit/out-of-order paths), deep-buffer (50 BDP, Fig. 12 shape,
// stresses queue pooling).
//
// Usage:
//   bench_perf_simcore [--quick] [--repeat N] [--check] [--json PATH]
//     --quick   quarter-length runs (the CI smoke configuration)
//     --repeat  run each scenario N times, keep the fastest (default 1)
//     --check   exit non-zero when steady-state allocations are nonzero
//               (deterministic, so safe for CI; no timing assertions)
//     --trap    abort on the first steady-state allocation (run under a
//               debugger: the backtrace names the allocating code path)
//     --json    write the measurements as JSON (BENCH_simcore.json schema,
//               documented in EXPERIMENTS.md)
//     --write-baseline FILE
//               record per-case events/sec as a JSONL baseline
//     --baseline FILE [--tolerance F]
//               compare against a recorded baseline: exit non-zero when any
//               case regresses below (1 - F) x baseline events/sec
//               (default F = 0.01). Timing-dependent — for perf triage on a
//               quiet machine, not for CI (CI uses the timing-free --check).
//     --check-events FILE
//               bit-identity gate: exit non-zero when any case's steady
//               event count differs from the recorded baseline. Event
//               counts are a pure function of the workload (no timing), so
//               this IS CI-safe — it is the `perf` ctest preset's gate
//               that optimizations stay semantics-preserving.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli_flags.hpp"
#include "exp/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_counter.hpp"
#include "util/jsonl.hpp"
#include "util/schemas.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

bool g_trap_steady = false;  ///< --trap: abort on first steady-state alloc

struct PerfCase {
  std::string name;
  Scenario scenario;
};

struct Measurement {
  std::uint64_t total_events = 0;
  double total_wall_sec = 0.0;
  std::uint64_t steady_events = 0;
  double steady_wall_sec = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_frees = 0;
  std::uint64_t setup_bytes = 0;
  std::uint64_t packets_delivered = 0;

  [[nodiscard]] double events_per_sec() const {
    return steady_wall_sec > 0.0
               ? static_cast<double>(steady_events) / steady_wall_sec
               : 0.0;
  }
  [[nodiscard]] double ns_per_event() const {
    return steady_events > 0
               ? steady_wall_sec * 1e9 / static_cast<double>(steady_events)
               : 0.0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return steady_events > 0
               ? static_cast<double>(steady_allocs) /
                     static_cast<double>(steady_events)
               : 0.0;
  }
};

Measurement run_case(const PerfCase& pc) {
  const Scenario& s = pc.scenario;
  Simulator sim;
  const std::uint64_t bytes0 = allocs::bytes();
  Dumbbell db{sim, s};
  db.reserve();

  // bbrnash-lint: allow(wall-clock) -- this harness MEASURES wall time
  // (events/sec, ns/event); timing never feeds back into simulation state.
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  sim.run_until(s.warmup);
  const auto t1 = Clock::now();
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t warm_bytes = allocs::bytes();
  const std::uint64_t warm_news = allocs::news();
  const std::uint64_t warm_deletes = allocs::deletes();
  if (g_trap_steady) allocs::set_trap(true);
  sim.run_until(s.duration);
  if (g_trap_steady) allocs::set_trap(false);
  const auto t2 = Clock::now();

  Measurement m;
  m.total_events = sim.events_executed();
  m.total_wall_sec = std::chrono::duration<double>(t2 - t0).count();
  m.steady_events = sim.events_executed() - warm_events;
  m.steady_wall_sec = std::chrono::duration<double>(t2 - t1).count();
  m.steady_allocs = allocs::news() - warm_news;
  m.steady_frees = allocs::deletes() - warm_deletes;
  m.setup_bytes = warm_bytes - bytes0;
  for (std::uint32_t i = 0; i < db.flows(); ++i) {
    m.packets_delivered += db.receiver(i).packets_received();
  }
  return m;
}

/// `cubic` + `bbr` flows at 40 ms over `capacity_mbps` with a buffer of
/// `buffer_bdp`, warming up until `warmup` and running to `duration`.
Scenario make_scenario(int cubic, int bbr, double capacity_mbps,
                       double buffer_bdp, TimeNs warmup, TimeNs duration) {
  Scenario s =
      make_mix_scenario(make_params(capacity_mbps, 40, buffer_bdp), cubic, bbr);
  s.warmup = warmup;
  s.duration = duration;
  return s;
}

std::vector<PerfCase> make_cases(bool quick) {
  const double scale = quick ? 0.25 : 1.0;
  const auto secs = [scale](double s) { return from_sec(s * scale); };

  PerfCase impaired{"impaired",
                    make_scenario(2, 2, 100, 1, secs(4), secs(12))};
  ImpairmentConfig& impair = impaired.scenario.impairments;
  impair.loss_rate = 0.005;
  impair.jitter = from_ms(2);
  impair.reorder_rate = 0.001;
  impair.reorder_delay = from_ms(5);

  return {{"two_flow", make_scenario(1, 1, 200, 1, secs(4), secs(12))},
          {"fifty_flow", make_scenario(25, 25, 400, 1, secs(3), secs(8))},
          impaired,
          {"deep_buffer", make_scenario(1, 1, 100, 50, secs(4), secs(12))}};
}

void write_json(const std::string& path, bool quick,
                const std::vector<PerfCase>& cases,
                const std::vector<Measurement>& results) {
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os << "{\n  \"schema\": \"" << kSchemaSimcorePerf << "\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Measurement& m = results[i];
    char buf[640];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"steady_events\": %llu, "
        "\"steady_wall_sec\": %.6f, \"events_per_sec\": %.0f, "
        "\"ns_per_event\": %.2f, \"allocs_per_event\": %.8f, "
        "\"steady_allocs\": %llu, \"steady_frees\": %llu, "
        "\"setup_bytes\": %llu, \"packets_delivered\": %llu}%s\n",
        cases[i].name.c_str(),
        static_cast<unsigned long long>(m.steady_events), m.steady_wall_sec,
        m.events_per_sec(), m.ns_per_event(), m.allocs_per_event(),
        static_cast<unsigned long long>(m.steady_allocs),
        static_cast<unsigned long long>(m.steady_frees),
        static_cast<unsigned long long>(m.setup_bytes),
        static_cast<unsigned long long>(m.packets_delivered),
        i + 1 < cases.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
}

/// One JSONL record per case; overwritten wholesale (a baseline is a
/// snapshot, not an append log).
void write_baseline(const std::string& path, bool quick,
                    const std::vector<PerfCase>& cases,
                    const std::vector<Measurement>& results) {
  std::ofstream os{path, std::ios::trunc};
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    JsonlRecord rec;
    rec.set("schema", kSchemaSimcoreBaseline);
    rec.set("name", cases[i].name);
    rec.set("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
    rec.set("events_per_sec", results[i].events_per_sec());
    rec.set("ns_per_event", results[i].ns_per_event());
    rec.set("steady_events", results[i].steady_events);
    os << rec.encode() << '\n';
  }
  std::printf("baseline written to %s (%zu cases)\n", path.c_str(),
              cases.size());
}

/// Timing-free bit-identity gate (CI-safe, unlike the events/sec compare):
/// steady-state event counts are a pure function of the workload, so any
/// deviation from the recorded baseline means simulation semantics changed.
/// Returns the number of mismatching cases; cases without a baseline entry
/// are reported but don't fail (a new case has nothing to diverge from).
int check_event_counts(const std::string& path,
                       const std::vector<PerfCase>& cases,
                       const std::vector<Measurement>& results) {
  std::size_t skipped = 0;
  const std::vector<JsonlRecord> records = read_jsonl(path, &skipped);
  if (skipped > 0) {
    std::fprintf(stderr, "warning: %zu unparseable line(s) in %s\n", skipped,
                 path.c_str());
  }
  if (records.empty()) {
    std::fprintf(stderr,
                 "error: no baseline records in %s (run with "
                 "--write-baseline first)\n",
                 path.c_str());
    return -1;
  }
  std::map<std::string, std::uint64_t> base;
  for (const JsonlRecord& r : records) {
    base[r.get_string("name")] =
        static_cast<std::uint64_t>(r.get_double("steady_events"));
  }
  int mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto it = base.find(cases[i].name);
    if (it == base.end()) {
      std::printf("events   %-12s (no baseline entry)\n",
                  cases[i].name.c_str());
      continue;
    }
    const bool ok = results[i].steady_events == it->second;
    if (!ok) ++mismatches;
    std::printf("events   %-12s %14llu vs %14llu recorded %s\n",
                cases[i].name.c_str(),
                static_cast<unsigned long long>(results[i].steady_events),
                static_cast<unsigned long long>(it->second),
                ok ? "ok" : "MISMATCH");
  }
  return mismatches;
}

/// Returns the number of cases that regressed below (1 - tolerance) x
/// their baseline events/sec. Cases without a baseline entry are reported
/// but don't fail the run (a new case has nothing to regress against).
int compare_baseline(const std::string& path, double tolerance,
                     const std::vector<PerfCase>& cases,
                     const std::vector<Measurement>& results) {
  std::size_t skipped = 0;
  const std::vector<JsonlRecord> records = read_jsonl(path, &skipped);
  if (skipped > 0) {
    std::fprintf(stderr, "warning: %zu unparseable line(s) in %s\n", skipped,
                 path.c_str());
  }
  if (records.empty()) {
    std::fprintf(stderr,
                 "error: no baseline records in %s (run with "
                 "--write-baseline first)\n",
                 path.c_str());
    return -1;
  }
  std::map<std::string, double> base;
  for (const JsonlRecord& r : records) {
    base[r.get_string("name")] = r.get_double("events_per_sec");
  }
  int regressions = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto it = base.find(cases[i].name);
    if (it == base.end() || it->second <= 0.0) {
      std::printf("baseline %-12s (no baseline entry)\n",
                  cases[i].name.c_str());
      continue;
    }
    const double measured = results[i].events_per_sec();
    const double floor = (1.0 - tolerance) * it->second;
    const bool ok = measured >= floor;
    if (!ok) ++regressions;
    std::printf("baseline %-12s %12.0f ev/s vs %12.0f recorded (%+.2f%%) %s\n",
                cases[i].name.c_str(), measured, it->second,
                100.0 * (measured / it->second - 1.0), ok ? "ok" : "REGRESSED");
  }
  return regressions;
}

}  // namespace
}  // namespace bbrnash

int main(int argc, char** argv) {
  using namespace bbrnash;
  bool quick = false;
  bool check = false;
  int repeat = 1;
  double tolerance = 0.01;
  std::string json_path;
  std::string only;
  std::string baseline_in;
  std::string baseline_out;
  std::string events_baseline;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_perf_simcore [--quick] [--repeat N] "
                 "[--check] [--trap] [--only CASE] [--json PATH]\n"
                 "                          [--write-baseline FILE] "
                 "[--baseline FILE] [--tolerance F]\n"
                 "                          [--check-events FILE]\n");
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick = true;
      } else if (arg == "--check") {
        check = true;
      } else if (arg == "--repeat" && i + 1 < argc) {
        repeat = std::max(1, parse_int_strict("--repeat", argv[++i]));
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--trap") {
        g_trap_steady = true;
      } else if (arg == "--only" && i + 1 < argc) {
        only = argv[++i];
      } else if (arg == "--write-baseline" && i + 1 < argc) {
        baseline_out = argv[++i];
      } else if (arg == "--baseline" && i + 1 < argc) {
        baseline_in = argv[++i];
      } else if (arg == "--check-events" && i + 1 < argc) {
        events_baseline = argv[++i];
      } else if (arg == "--tolerance" && i + 1 < argc) {
        tolerance = parse_double_strict("--tolerance", argv[++i]);
        if (tolerance < 0.0 || tolerance >= 1.0) {
          std::fprintf(stderr, "--tolerance must be in [0, 1)\n");
          return usage();
        }
      } else {
        return usage();
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid flag value: %s\n", e.what());
    return usage();
  }

  std::vector<PerfCase> cases = make_cases(quick);
  if (!only.empty()) {
    std::erase_if(cases, [&](const PerfCase& c) { return c.name != only; });
    if (cases.empty()) {
      std::fprintf(stderr, "unknown case: %s\n", only.c_str());
      return 2;
    }
  }
  std::vector<Measurement> results;
  results.reserve(cases.size());
  std::printf("simulator-core perf harness (%s)\n",
              quick ? "quick" : "full");
  std::printf("%-12s %14s %12s %12s %16s %12s %12s\n", "scenario",
              "events", "events/sec", "ns/event", "allocs/event",
              "setup_bytes", "pkts");
  bool clean = true;
  for (const PerfCase& pc : cases) {
    Measurement best;
    for (int r = 0; r < repeat; ++r) {
      Measurement m = run_case(pc);
      if (r == 0 || m.steady_wall_sec < best.steady_wall_sec) best = m;
    }
    // Steady-state allocations are deterministic (they depend only on the
    // simulated workload, never on timing), so the zero check is CI-safe.
    if (best.steady_allocs != 0) clean = false;
    std::printf("%-12s %14llu %12.0f %12.1f %16.8f %12llu %12llu\n",
                pc.name.c_str(),
                static_cast<unsigned long long>(best.steady_events),
                best.events_per_sec(), best.ns_per_event(),
                best.allocs_per_event(),
                static_cast<unsigned long long>(best.setup_bytes),
                static_cast<unsigned long long>(best.packets_delivered));
    results.push_back(best);
  }
  if (!json_path.empty()) write_json(json_path, quick, cases, results);
  if (!baseline_out.empty()) write_baseline(baseline_out, quick, cases, results);
  if (!baseline_in.empty()) {
    const int regressions =
        compare_baseline(baseline_in, tolerance, cases, results);
    if (regressions != 0) return 1;
  }
  if (!events_baseline.empty()) {
    const int mismatches = check_event_counts(events_baseline, cases, results);
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: steady-state event counts diverged from the "
                   "recorded baseline (semantics changed)\n");
      return 1;
    }
  }
  if (check && !clean) {
    std::fprintf(stderr,
                 "FAIL: steady-state allocations detected on the packet "
                 "hot path (expected 0 per event after warmup)\n");
    return 1;
  }
  return 0;
}
