// bbrnash_e2e: the end-to-end benchmark, tracing off.
//
//   bbrnash_e2e --workload W [--seed N] [--seconds S] [--run-dir DIR]
//               [--out FILE] [--check-expected FILE] [--write-expected FILE]
//   bbrnash_e2e --smoke [--workload W] [--check-expected FILE]
//   bbrnash_e2e --compare A.jsonl B.jsonl   (from the repository root)
//
// A run sets up three times (fresh scratch directory plus one untimed
// warm-up trial; setup_s is the median), then takes units of work from the
// workload's seeded stream until --seconds have passed, checks every unit's
// outputs, and prints the metrics followed by the result line (last line
// of stdout). --smoke runs a fixed handful of units instead, with every
// check and no timing. bench/e2e/run.sh builds this binary and runs each
// workload in its own process; see bench/e2e/README.md.
//
// Exit status: 0 when every output checked out, 1 when a check failed,
// 2 on a bad command line or unreadable file.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"
#include "json.hpp"
#include "model/mishra_model.hpp"
#include "model/nash.hpp"
#include "util/jsonl.hpp"
#include "util/stats.hpp"

namespace bbrnash::e2e {
namespace {

/// One unit's outcome. `det` holds the deterministic outputs (a pure
/// function of workload, seed and unit index) that --check-expected and
/// --write-expected compare and record; doubles round-trip exactly.
struct UnitResult {
  double wall_ms = 0.0;
  std::string failure;  ///< empty when every self-check passed
  std::vector<std::pair<std::string, double>> det;

  [[nodiscard]] double field(const std::string& name) const {
    for (const auto& [k, v] : det) {
      if (k == name) return v;
    }
    return 0.0;
  }
};

UnitResult run_trial_unit(Workload w, std::uint64_t seed, std::size_t u) {
  UnitResult r;
  const Scenario s = unit_scenario(w, seed, u);
  const auto t0 = Clock::now();
  const RunOutcome o = run_scenario_guarded(s);
  std::optional<MishraPrediction> model;
  if (w == Workload::kFig3TwoFlow) model = two_flow_prediction(unit_network(w, u));
  r.wall_ms = seconds_since(t0) * 1e3;

  const RunResult& res = o.result;
  std::uint64_t retx = 0;
  std::uint64_t rtos = 0;
  for (const FlowResult& f : res.flows) {
    retx += f.stats.retransmits;
    rtos += f.stats.rtos;
  }
  const auto events = static_cast<double>(o.diagnostics.events_executed);
  r.det = {{"events", events},
           {"drops", static_cast<double>(res.total_drops)},
           {"retransmits", static_cast<double>(retx)},
           {"rtos", static_cast<double>(rtos)}};
  if (w == Workload::kImpaired8Flow) {
    r.det.emplace_back("impair_data_drops",
                       static_cast<double>(res.data_impairments.dropped));
    r.det.emplace_back("impair_ack_drops",
                       static_cast<double>(res.ack_impairments.dropped));
    r.det.emplace_back("impair_reordered",
                       static_cast<double>(res.data_impairments.reordered));
  }
  const double sim_bbr = res.avg_goodput_mbps(CcKind::kBbr);
  if (w == Workload::kFig3TwoFlow) {
    r.det.emplace_back("sim_bbr_mbps", sim_bbr);
    r.det.emplace_back("model_bbr_mbps",
                       model ? to_mbps(model->lambda_bbr) : 0.0);
  }

  if (!o.ok()) {
    r.failure = std::string{to_string(o.status)} + ": " + o.diagnostics.message;
  } else if (events <= 0.0) {
    r.failure = "no events executed";
  } else if (!(res.link_utilization > 0.0 && res.link_utilization <= 1.001)) {
    r.failure = "link utilization " + std::to_string(res.link_utilization) +
                " outside (0, 1]";
  } else if (!(res.total_goodput_all_mbps() > 0.0)) {
    r.failure = "zero goodput";
  } else if (w == Workload::kFig3TwoFlow && (!model || !(sim_bbr > 0.0))) {
    r.failure = "no model prediction or zero BBR goodput";
  }
  return r;
}

UnitResult run_ne_unit(std::uint64_t seed, std::size_t u,
                       const std::string& dir) {
  UnitResult r;
  const std::string log = dir + "/ne-" + std::to_string(u) + ".jsonl";
  const NetworkParams net = unit_network(Workload::kNeFig9, u);
  const NashSearchConfig cfg = ne_config(seed, u, log);
  const auto t0 = Clock::now();
  try {
    const int k = find_ne_crossing(net, kNeFlows, cfg);
    const auto region = predict_nash_region(net, kNeFlows);
    r.wall_ms = seconds_since(t0) * 1e3;
    std::uint64_t trials = 0;
    const std::vector<JsonlRecord> cells = read_jsonl(log);
    for (const JsonlRecord& c : cells) trials += c.get_u64("trials_completed");
    const double cubic = kNeFlows - k;
    const bool in_region = region && cubic >= region->cubic_low() - 0.5 &&
                           cubic <= region->cubic_high() + 0.5;
    r.det = {{"k", static_cast<double>(k)},
             {"cells", static_cast<double>(cells.size())},
             {"trials", static_cast<double>(trials)},
             {"in_region", in_region ? 1.0 : 0.0}};
    if (k < 0 || k > kNeFlows) {
      r.failure = "NE k=" + std::to_string(k) + " outside [0, 50]";
    } else if (trials == 0) {
      r.failure = "checkpoint log holds no trials";
    } else if (!region) {
      r.failure = "no predicted Nash region";
    }
  } catch (const std::exception& e) {
    r.wall_ms = seconds_since(t0) * 1e3;
    r.failure = std::string{"NE search threw: "} + e.what();
  }
  return r;
}

/// Runs the timed phase (or the smoke units) and returns every unit taken.
std::vector<UnitResult> run_units(Workload w, const Options& opts,
                                  const std::string& dir) {
  std::vector<UnitResult> out;
  if (w != Workload::kNeFig9) {
    const auto t0 = Clock::now();
    for (std::size_t u = 0;; ++u) {
      if (opts.smoke ? u >= smoke_units(w)
                     : u > 0 && seconds_since(t0) >= opts.seconds) {
        break;
      }
      out.push_back(run_trial_unit(w, opts.seed, u));
    }
    return out;
  }
  if (opts.smoke) {
    out.resize(smoke_units(w));
    parallel_for(kNeThreads, out.size(), [&](std::size_t u) {
      out[u] = run_ne_unit(opts.seed, u, dir);
    });
    return out;
  }
  // Points start in unit order (a ticket taken at task start), so the
  // grid is covered evenly whichever worker runs what; tasks that start
  // after the deadline return at once.
  constexpr std::size_t kMaxUnits = 4096;
  out.resize(kMaxUnits);
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  parallel_for(kNeThreads, kMaxUnits, [&](std::size_t) {
    if (seconds_since(t0) >= opts.seconds) return;
    const std::size_t u = next.fetch_add(1);
    if (u < kMaxUnits) out[u] = run_ne_unit(opts.seed, u, dir);
  });
  out.resize(std::min(next.load(), kMaxUnits));
  return out;
}

/// This workload and seed's recorded units, by unit index.
std::map<std::size_t, JsonlRecord> load_expected(const std::string& path, Workload w,
                       std::uint64_t seed) {
  if (!std::ifstream{path}) {
    throw std::runtime_error{"cannot read expected outputs " + path};
  }
  std::map<std::size_t, JsonlRecord> units;
  for (JsonlRecord& rec : read_jsonl(path)) {
    if (rec.get_string("workload") == to_string(w) &&
        rec.get_u64("seed") == seed) {
      units[rec.get_u64("unit")] = std::move(rec);
    }
  }
  return units;
}

/// Prints ok/MISMATCH per deterministic field; false on any mismatch or
/// when the file has no record for this workload and seed.
bool check_expected(const Options& opts, Workload w,
                    const std::vector<UnitResult>& units) {
  const auto expected = load_expected(opts.check_expected, w, opts.seed);
  const char* name = to_string(w);
  if (expected.empty()) {
    std::printf("expected %s: MISMATCH no records for seed %llu in %s\n",
                name, static_cast<unsigned long long>(opts.seed),
                opts.check_expected.c_str());
    return false;
  }
  bool all_ok = true;
  std::size_t checked = 0;
  std::map<std::string, std::string> first_diff;
  std::map<std::string, std::size_t> diffs;
  std::vector<std::string> fields;
  for (const auto& [field, v] : units[0].det) fields.push_back(field);
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto it = expected.find(u);
    if (it == expected.end()) continue;
    ++checked;
    for (const auto& [field, got] : units[u].det) {
      const double want = it->second.get_double(field, -1.0);
      if (!it->second.has(field) || want != got) {
        if (diffs[field]++ == 0) {
          char buf[160];
          std::snprintf(buf, sizeof buf, "unit %zu got %.17g want %.17g", u,
                        got, want);
          first_diff[field] = buf;
        }
      }
    }
  }
  for (const std::string& f : fields) {
    if (diffs[f] == 0) {
      std::printf("expected %s %s: ok (%zu units)\n", name, f.c_str(), checked);
    } else {
      all_ok = false;
      std::printf("expected %s %s: MISMATCH in %zu of %zu units, first %s\n",
                  name, f.c_str(), diffs[f], checked, first_diff[f].c_str());
    }
  }
  if (checked < units.size()) {
    std::printf("expected %s: %zu units past the recorded %zu not checked\n",
                name, units.size() - checked, expected.size());
  }
  return all_ok && checked > 0;
}

/// Replaces this workload+seed's records in `path` (a JSONL file shared by
/// all workloads of one seed) with this run's deterministic outputs.
void write_expected(const Options& opts, Workload w,
                    const std::vector<UnitResult>& units) {
  std::vector<JsonlRecord> keep;
  for (JsonlRecord& rec : read_jsonl(opts.write_expected)) {
    if (rec.get_string("workload") != to_string(w) ||
        rec.get_u64("seed") != opts.seed) {
      keep.push_back(std::move(rec));
    }
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    JsonlRecord rec;
    rec.set("workload", to_string(w));
    rec.set("seed", opts.seed);
    rec.set("unit", static_cast<std::uint64_t>(u));
    for (const auto& [field, v] : units[u].det) rec.set(field, v);
    keep.push_back(std::move(rec));
  }
  std::stable_sort(keep.begin(), keep.end(),
                   [](const JsonlRecord& a, const JsonlRecord& b) {
                     return std::make_pair(a.get_string("workload"),
                                           a.get_u64("unit")) <
                            std::make_pair(b.get_string("workload"),
                                           b.get_u64("unit"));
                   });
  std::ofstream f{opts.write_expected, std::ios::trunc};
  for (const JsonlRecord& rec : keep) f << rec.encode() << '\n';
  if (!f) throw std::runtime_error{"cannot write " + opts.write_expected};
}

/// Set-up runs this often per run; setup_s is the median.
constexpr int kSetupReps = 5;

/// Runs one workload end to end; returns true when every check passed.
bool run_workload(Workload w, const Options& opts) {
  const char* name = to_string(w);

  // Set-up, repeated: fresh scratch directory plus one untimed trial of
  // the workload's first configuration (pool growth and page faults are
  // paid here, not in the timed phase).
  std::vector<double> setup_s;
  std::vector<std::uint64_t> warm_events;
  bool correct = true;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    dir = fresh_run_dir(opts, w, "");
    const RunOutcome o = run_scenario_guarded(unit_scenario(w, opts.seed, 0));
    setup_s.push_back(seconds_since(t0));
    warm_events.push_back(o.diagnostics.events_executed);
    if (!o.ok()) {
      correct = false;
      std::printf("check %s: warm-up trial failed: %s\n", name,
                  o.diagnostics.message.c_str());
    }
  }
  if (std::count(warm_events.begin(), warm_events.end(), warm_events[0]) !=
      kSetupReps) {
    correct = false;
    std::printf("check %s: warm-up trial is not deterministic\n", name);
  }

  const std::vector<UnitResult> units = run_units(w, opts, dir);

  std::uint64_t failed = 0;
  std::vector<double> wall_ms;
  for (std::size_t u = 0; u < units.size(); ++u) {
    wall_ms.push_back(units[u].wall_ms);
    if (!units[u].failure.empty()) {
      ++failed;
      std::printf("check %s: unit %zu failed: %s\n", name, u,
                  units[u].failure.c_str());
    }
  }
  // Unit 0 of a trial workload is the warm-up's own scenario and seed.
  if (w != Workload::kNeFig9 &&
      units[0].field("events") != static_cast<double>(warm_events[0])) {
    correct = false;
    std::printf("check %s: unit 0 did not reproduce the warm-up's events\n",
                name);
  }

  // Deterministic outputs and context, printed ahead of the metrics.
  const auto n = static_cast<double>(units.size());
  std::printf("info %s: %zu units, unit_ms p50 %.1f mean %.1f p90 %.1f max "
              "%.1f\n",
              name, units.size(), percentile(wall_ms, 0.5), mean_of(wall_ms),
              percentile(wall_ms, 0.9),
              *std::max_element(wall_ms.begin(), wall_ms.end()));
  if (w == Workload::kNeFig9) {
    double trials = 0.0;
    double in_region = 0.0;
    std::string ks;
    for (const UnitResult& r : units) {
      trials += r.field("trials");
      in_region += r.field("in_region");
      ks += " " + std::to_string(static_cast<int>(r.field("k")));
    }
    std::printf("info %s: trials %.0f (%.1f per point), ne_in_region %.0f of "
                "%zu, k:%s\n",
                name, trials, trials / n, in_region, units.size(), ks.c_str());
  } else {
    double events = 0.0;
    double drops = 0.0;
    double retx = 0.0;
    for (const UnitResult& r : units) {
      events += r.field("events");
      drops += r.field("drops");
      retx += r.field("retransmits");
    }
    double wall_s = 0.0;
    for (const double ms : wall_ms) wall_s += ms / 1e3;
    std::printf("info %s: sim.events %.0f, events_per_s %.4g, drops %.0f, "
                "retransmits %.0f\n",
                name, events, events / wall_s, drops, retx);
    if (w == Workload::kFig3TwoFlow) {
      RunningStats err;
      for (const UnitResult& r : units) {
        const double sim = r.field("sim_bbr_mbps");
        err.add(100.0 * std::abs(r.field("model_bbr_mbps") - sim) / sim);
      }
      std::printf("info %s: model_err_pct %.2f over %zu cells\n", name,
                  err.mean(), units.size());
    }
  }

  if (!opts.check_expected.empty() && !check_expected(opts, w, units)) {
    correct = false;
  }
  if (!opts.write_expected.empty()) write_expected(opts, w, units);

  // The mean, not the median: a grid workload's units differ in size, and
  // their mean is the time to produce the figure per cell or point.
  const std::vector<Metric> metrics = {
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"unit_ms_mean", mean_of(wall_ms), "ms"},
      {"peak_rss_mb", proc_stats().peak_rss_mb, "MB"},
  };
  print_metrics(w, metrics);
  const std::string line =
      result_json(correct && failed == 0, units.size(), failed, metrics);
  if (!opts.out.empty()) {
    std::ofstream f{opts.out, std::ios::app};
    f << "{\"workload\": \"" << name << "\", \"seed\": " << opts.seed << ", "
      << line.substr(1) << '\n';
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && failed == 0;
}

// --- --compare ------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error{"cannot read " + path};
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

using MetricSamples = std::map<std::string, std::map<std::string, std::vector<double>>>;

MetricSamples load_results(const std::string& path) {
  MetricSamples out;
  std::istringstream lines{read_file(path)};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto j = parse_json(line);
    const Json* w = j ? j->get("workload") : nullptr;
    const Json* m = j ? j->get("metrics") : nullptr;
    if (w == nullptr || m == nullptr) {
      throw std::runtime_error{"malformed result record in " + path};
    }
    for (const auto& [name, v] : m->fields) {
      if (const Json* value = v.get("value")) {
        out[w->str][name].push_back(value->number);
      }
    }
  }
  return out;
}

/// Median of each end-to-end metric per workload in set B against set A;
/// a metric worse by more than its BENCHMARK.json bound fails.
int compare_sets(const Options& opts) {
  const auto bench = parse_json(read_file("BENCHMARK.json"));
  const Json* e2e = bench ? bench->get("end_to_end") : nullptr;
  if (e2e == nullptr) throw std::runtime_error{"no end_to_end in BENCHMARK.json"};
  const MetricSamples a = load_results(opts.compare[0]);
  const MetricSamples b = load_results(opts.compare[1]);
  std::set<std::string> workloads;
  for (const auto& [w, m] : a) workloads.insert(w);
  for (const auto& [w, m] : b) workloads.insert(w);

  std::printf("%-15s %-14s %5s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "runs", "median A", "median B", "worse by", "bound", "verdict");
  bool pass = true;
  for (const std::string& w : workloads) {
    for (const Json& spec : e2e->items) {
      const std::string name = spec.get("name")->str;
      const bool lower = spec.get("better")->str == "lower";
      const double bound = spec.get("bound")->number;
      const auto find = [&](const MetricSamples& s) -> std::vector<double> {
        const auto wi = s.find(w);
        if (wi == s.end()) return {};
        const auto mi = wi->second.find(name);
        return mi == wi->second.end() ? std::vector<double>{} : mi->second;
      };
      const std::vector<double> va = find(a);
      const std::vector<double> vb = find(b);
      if (va.empty() || vb.empty()) {
        std::printf("%-15s %-14s missing from one set\n", w.c_str(),
                    name.c_str());
        pass = false;
        continue;
      }
      const double ma = percentile(va, 0.5);
      const double mb = percentile(vb, 0.5);
      const double worse = (lower ? mb - ma : ma - mb) / ma;
      const bool ok = worse <= bound;
      pass = pass && ok;
      std::printf("%-15s %-14s %2zu/%-2zu %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
                  w.c_str(), name.c_str(), va.size(), vb.size(), ma, mb,
                  100.0 * worse, 100.0 * bound, ok ? "ok" : "EXCEEDS BOUND");
    }
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace bbrnash::e2e

int main(int argc, char** argv) {
  using namespace bbrnash::e2e;
  try {
    Options opts = parse_options(argc, argv);
    if (!opts.compare.empty()) return compare_sets(opts);
    if (opts.workloads.empty()) {
      if (!opts.smoke) {
        std::fprintf(stderr, "bbrnash_e2e: give --workload, --smoke or "
                             "--compare\n");
        return 2;
      }
      opts.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
    }
    bool ok = true;
    for (const Workload w : opts.workloads) ok = run_workload(w, opts) && ok;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbrnash_e2e: %s\n", e.what());
    return 2;
  }
}
