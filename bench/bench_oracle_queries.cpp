// bench_oracle_queries: the payoff-oracle query-latency harness.
//
// The oracle's contract is economic: an exact memo hit must be so much
// cheaper than recomputing the cell that callers can treat cached payoff
// lookups as free. This driver measures all three answer tiers against one
// live PayoffOracle:
//
//   miss          cold queries that genuinely run the simulator (tier 3) —
//                 the recompute cost everything else is compared against,
//   exact         hot repeats of the same cells (tier 1 memo hits),
//   interpolated  midpoint queries between cached cells (tier 2; the model
//                 cross-check is disarmed so the tier itself is timed, not
//                 the rejection path).
//
// and reports queries/sec plus p50/p99 latency per tier and the headline
// ratio `exact-hit speedup vs recompute` (mean miss / mean exact). The
// measured numbers land in results/BENCH_oracle.json (see EXPERIMENTS.md).
//
// Usage:
//   bench_oracle_queries [--quick] [--check] [--json PATH]
//     [--write-baseline FILE] [--baseline FILE] [--tolerance F]
//     --quick   shorter compute cells + fewer timed queries (CI smoke)
//     --check   exit non-zero unless (a) every exact hit is bit-identical
//               to the outcome computed in the miss phase, (b) every
//               midpoint query answers with the interpolated fidelity tag,
//               (c) a --no-compute probe returns kPending with zeroed
//               numbers, and (d) exact hits are >= 1000x faster than
//               recompute (a conservative floor: the full-fidelity ratio
//               runs well past 10000x; the floor keeps CI flake-free)
//     --json    write the measurements as JSON (bbrnash-oracle-perf-v1)
//     --write-baseline FILE
//               record per-tier queries/sec as a JSONL baseline
//     --baseline FILE [--tolerance F]
//               compare per-tier queries/sec against a recorded baseline:
//               exit non-zero when any tier regresses below (1 - F) x
//               baseline (default F = 0.2; query latency is micro-scale,
//               so the gate is looser than the simcore one). Timing-
//               dependent — perf triage, not CI (CI uses --check).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli_flags.hpp"
#include "exp/oracle.hpp"
#include "util/jsonl.hpp"
#include "util/schemas.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

// bbrnash-lint: allow(wall-clock) -- this harness MEASURES wall time
// (queries/sec, per-tier latency); timing never feeds back into any
// simulation or oracle state.
using Clock = std::chrono::steady_clock;

struct TierStats {
  std::string name;
  std::vector<double> ns;  ///< one entry per timed query

  [[nodiscard]] double mean_ns() const {
    if (ns.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : ns) sum += v;
    return sum / static_cast<double>(ns.size());
  }
  /// Delegates to the shared util/stats percentile (numpy-style linear
  /// interpolation). The old local copy truncated the rank, so p99 of a
  /// small sample silently reported a lower quantile (for n < 100 it could
  /// equal the median); one implementation, pinned by tests/util, now
  /// serves every consumer.
  [[nodiscard]] double percentile_ns(double p) const {
    return percentile(ns, p);
  }
  [[nodiscard]] double qps() const {
    const double m = mean_ns();
    return m > 0.0 ? 1e9 / m : 0.0;
  }
};

OracleQuery make_query(double buffer_bdp, bool quick) {
  OracleQuery q;
  q.net = make_params(100, 40, buffer_bdp);
  q.num_cubic = 1;
  q.num_other = 1;
  // Full fidelity keeps TrialConfig's defaults (3 trials x 40 s — the
  // sweep cell the paper figures are built from), so the speedup ratio is
  // against the genuine recompute cost. Quick shrinks the cells for CI.
  if (quick) {
    q.trial.trials = 1;
    q.trial.duration = from_sec(5.0);
    q.trial.warmup = from_sec(1.0);
  }
  q.trial.seed = 1;
  q.trial.jobs = 1;
  return q;
}

/// Bit-identical MixOutcome comparison: the exact tier's contract is "the
/// same doubles run_mix_trials produced", not "close".
bool same_outcome(const MixOutcome& a, const MixOutcome& b) {
  return std::memcmp(&a.per_flow_cubic_mbps, &b.per_flow_cubic_mbps,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.per_flow_other_mbps, &b.per_flow_other_mbps,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.total_cubic_mbps, &b.total_cubic_mbps,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.total_other_mbps, &b.total_other_mbps,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.avg_queue_delay_ms, &b.avg_queue_delay_ms,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.link_utilization, &b.link_utilization,
                     sizeof(double)) == 0 &&
         a.trials_completed == b.trials_completed &&
         a.trials_failed == b.trials_failed;
}

void write_json(const std::string& path, bool quick,
                std::vector<TierStats>& tiers, double speedup) {
  std::ofstream os{path};
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  os << "{\n  \"schema\": \"" << kSchemaOraclePerf << "\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    TierStats& t = tiers[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "    {\"tier\": \"%s\", \"queries\": %zu, "
                  "\"qps\": %.1f, \"mean_us\": %.3f, \"p50_us\": %.3f, "
                  "\"p99_us\": %.3f}%s\n",
                  t.name.c_str(), t.ns.size(), t.qps(), t.mean_ns() / 1e3,
                  t.percentile_ns(0.50) / 1e3, t.percentile_ns(0.99) / 1e3,
                  i + 1 < tiers.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n";
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "  \"speedup_exact_vs_compute\": %.0f\n}\n", speedup);
  os << buf;
}

void write_baseline(const std::string& path, bool quick,
                    const std::vector<TierStats>& tiers) {
  std::ofstream os{path, std::ios::trunc};
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  for (const TierStats& t : tiers) {
    JsonlRecord rec;
    rec.set("schema", kSchemaOracleBaseline);
    rec.set("name", t.name);
    rec.set("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
    rec.set("qps", t.qps());
    rec.set("queries", static_cast<std::uint64_t>(t.ns.size()));
    os << rec.encode() << '\n';
  }
  std::printf("baseline written to %s (%zu tiers)\n", path.c_str(),
              tiers.size());
}

int compare_baseline(const std::string& path, double tolerance,
                     const std::vector<TierStats>& tiers) {
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
    base[r.get_string("name")] = r.get_double("qps");
  }
  int regressions = 0;
  for (const TierStats& t : tiers) {
    const auto it = base.find(t.name);
    if (it == base.end() || it->second <= 0.0) {
      std::printf("baseline %-14s (no baseline entry)\n", t.name.c_str());
      continue;
    }
    const double measured = t.qps();
    const bool ok = measured >= (1.0 - tolerance) * it->second;
    if (!ok) ++regressions;
    std::printf("baseline %-14s %12.0f q/s vs %12.0f recorded (%+.2f%%) %s\n",
                t.name.c_str(), measured, it->second,
                100.0 * (measured / it->second - 1.0),
                ok ? "ok" : "REGRESSED");
  }
  return regressions;
}

}  // namespace
}  // namespace bbrnash

int main(int argc, char** argv) {
  using namespace bbrnash;
  bool quick = false;
  bool check = false;
  double tolerance = 0.2;
  std::string json_path;
  std::string baseline_in;
  std::string baseline_out;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_oracle_queries [--quick] [--check] "
                 "[--json PATH]\n"
                 "  [--write-baseline FILE] [--baseline FILE] "
                 "[--tolerance F]\n");
    return 2;
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick = true;
      } else if (arg == "--check") {
        check = true;
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--write-baseline" && i + 1 < argc) {
        baseline_out = argv[++i];
      } else if (arg == "--baseline" && i + 1 < argc) {
        baseline_in = argv[++i];
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

  // Cells at these buffer depths are computed cold (the miss tier), then
  // re-queried hot (exact tier); the gaps between them host the midpoint
  // queries (interpolated tier). In-memory cache only: the disk log is
  // crash-safety machinery, not part of the per-query cost being measured.
  const std::vector<double> grid_bdps = {2, 4, 8};
  const std::vector<double> mid_bdps = {3, 6};
  const std::size_t exact_iters = quick ? 20000 : 60000;
  const std::size_t interp_iters = quick ? 5000 : 20000;

  OracleConfig cfg;
  // Disarm the model cross-check: this harness times the interpolation
  // tier itself; whether a particular blend would survive the band gate is
  // the differential suite's concern, not a latency question.
  cfg.max_band_deviation = 1e9;
  PayoffOracle oracle{cfg};

  std::printf("payoff-oracle query harness (%s)\n", quick ? "quick" : "full");
  bool ok = true;

  // --- miss tier: cold computes ------------------------------------------
  TierStats miss{"miss_compute", {}};
  std::vector<MixOutcome> computed;
  for (const double bdp : grid_bdps) {
    const OracleQuery q = make_query(bdp, quick);
    const auto t0 = Clock::now();
    const OracleAnswer a = oracle.query(q);
    const auto t1 = Clock::now();
    miss.ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (!a.ok() || a.fidelity != OracleFidelity::kExact) {
      std::fprintf(stderr, "FAIL: cold query at %.0f BDP did not compute\n",
                   bdp);
      ok = false;
    }
    computed.push_back(a.outcome);
  }

  // --- exact tier: hot memo hits -----------------------------------------
  TierStats exact{"exact", {}};
  exact.ns.reserve(exact_iters);
  for (std::size_t i = 0; i < exact_iters; ++i) {
    const double bdp = grid_bdps[i % grid_bdps.size()];
    const OracleQuery q = make_query(bdp, quick);
    const auto t0 = Clock::now();
    const OracleAnswer a = oracle.query(q);
    const auto t1 = Clock::now();
    exact.ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (check && (!a.ok() || a.fidelity != OracleFidelity::kExact ||
                  !same_outcome(a.outcome, computed[i % grid_bdps.size()]))) {
      std::fprintf(stderr,
                   "FAIL: exact hit at %.0f BDP not bit-identical to the "
                   "computed outcome\n",
                   bdp);
      ok = false;
      break;
    }
  }

  // --- interpolated tier: midpoints between cached cells -----------------
  TierStats interp{"interpolated", {}};
  interp.ns.reserve(interp_iters);
  for (std::size_t i = 0; i < interp_iters; ++i) {
    const double bdp = mid_bdps[i % mid_bdps.size()];
    const OracleQuery q = make_query(bdp, quick);
    const auto t0 = Clock::now();
    const OracleAnswer a = oracle.query(q);
    const auto t1 = Clock::now();
    interp.ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (check && (!a.ok() || a.fidelity != OracleFidelity::kInterpolated)) {
      std::fprintf(stderr,
                   "FAIL: midpoint query at %.0f BDP answered %s/%s, "
                   "expected ok/interpolated\n",
                   bdp, to_string(a.status), to_string(a.fidelity));
      ok = false;
      break;
    }
  }

  // --- pending probe: a miss under --no-compute must stay silent ---------
  if (check) {
    OracleConfig frozen;
    frozen.no_compute = true;
    frozen.allow_model = false;
    PayoffOracle probe{frozen};
    const OracleAnswer a = probe.query(make_query(5, quick));
    const MixOutcome zero;
    if (a.status != OracleStatus::kPending || !same_outcome(a.outcome, zero)) {
      std::fprintf(stderr,
                   "FAIL: --no-compute miss fabricated numbers (status %s)\n",
                   to_string(a.status));
      ok = false;
    }
  }

  std::vector<TierStats> tiers;
  tiers.push_back(std::move(miss));
  tiers.push_back(std::move(exact));
  tiers.push_back(std::move(interp));

  std::printf("%-14s %9s %14s %12s %12s\n", "tier", "queries", "queries/sec",
              "p50_us", "p99_us");
  for (TierStats& t : tiers) {
    std::printf("%-14s %9zu %14.0f %12.3f %12.3f\n", t.name.c_str(),
                t.ns.size(), t.qps(), t.percentile_ns(0.50) / 1e3,
                t.percentile_ns(0.99) / 1e3);
  }
  const double speedup =
      tiers[1].mean_ns() > 0.0 ? tiers[0].mean_ns() / tiers[1].mean_ns() : 0.0;
  std::printf("exact-hit speedup vs recompute: %.0fx\n", speedup);

  if (!json_path.empty()) write_json(json_path, quick, tiers, speedup);
  if (!baseline_out.empty()) write_baseline(baseline_out, quick, tiers);
  if (!baseline_in.empty()) {
    const int regressions = compare_baseline(baseline_in, tolerance, tiers);
    if (regressions != 0) return 1;
  }
  if (check && speedup < 1000.0) {
    std::fprintf(stderr,
                 "FAIL: exact-hit speedup %.0fx below the 1000x floor\n",
                 speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
