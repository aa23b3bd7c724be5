// bbrnash — command-line front end to the simulator and the model.
//
//   bbrnash run   --capacity 100 --rtt 40 --buffer-bdp 5
//                 --flows cubic:4,bbr:2 [--duration 60] [--warmup 15]
//                 [--seed 1] [--aqm droptail|red|codel] [--csv]
//                 [--loss P] [--ack-loss P] [--ge-p-gb P --ge-p-bg P
//                  --ge-loss-bad P] [--reorder P --reorder-delay-ms MS]
//                 [--duplicate P] [--jitter-ms MS]
//                 [--flap-period-s S --flap-down-s S --flap-down-mbps M]
//                 [--max-events N] [--max-wall-s S] [--retries N]
//   bbrnash model --capacity 100 --rtt 40 --buffer-bdp 5
//                 [--cubic 5 --bbr 5]
//   bbrnash nash  --capacity 100 --rtt 40 --buffer-bdp 5 --flows-total 50
//                 [--empirical] [--trials N] [--duration S] [--warmup S]
//                 [--seed N] [--jobs N] [--challenger bbr|bbrv2|...]
//                 [--tolerance F] [--checkpoint PATH]
//   bbrnash sweep --capacity 100 --rtt 40 --buffer-bdp 5 --flows-total 20
//                 [--workers N] [--lease-ms MS] [--max-worker-retries N]
//                 [--checkpoint PATH] [--fabric-stats] [--trials N]
//                 [--duration S] [--warmup S] [--seed N] [--jobs N]
//                 [--challenger CC] [--tolerance F] [--audit] [--chaos SEED]
//
// `run` simulates a scenario and prints per-flow results; `model` prints
// the analytical prediction; `nash` prints the predicted Nash region —
// with `--empirical` it also runs the crossing search on the simulator
// (`--jobs N` fans the per-distribution trials out over N worker threads;
// the result is bit-identical to --jobs 1). `sweep` measures the full
// payoff grid k = 0..N; with `--workers N` the cells are sharded across N
// forked worker processes via the crash-tolerant fabric (exp/fabric.hpp),
// bit-identical to the in-process run. Sweep exit codes: 0 complete,
// 1 hard error, 2 usage, 3 partial results (some cells failed after
// retries), 130 interrupted by SIGINT/SIGTERM (resume with the same
// --checkpoint).
// Unknown flags are rejected with a non-zero exit so a typo'd knob can
// never silently run the default experiment.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/chaos.hpp"
#include "exp/checkpoint.hpp"
#include "exp/cli_flags.hpp"
#include "exp/fabric.hpp"
#include "exp/nash_search.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"
#include "model/mishra_model.hpp"
#include "model/nash.hpp"
#include "model/ware_model.hpp"
#include "util/table.hpp"

using namespace bbrnash;

namespace {

struct Args {
  std::map<std::string, std::string> kv;
  bool csv = false;
  bool empirical = false;
  bool audit = false;
  bool fabric_stats = false;

  // All numeric lookups parse strictly: the whole token must be a finite
  // number of the right shape, or the command exits 2 via the
  // invalid_argument handler in main. `--seed 1e9` and `--trials 3x`
  // must never silently run a different experiment.
  double num(const std::string& key, double fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    return parse_double_strict("--" + key, it->second);
  }
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    return parse_u64_strict("--" + key, it->second);
  }
  int integer(const std::string& key, int fallback) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    return parse_int_strict("--" + key, it->second);
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return kv.count(key) != 0; }
};

int usage() {
  std::fprintf(
      stderr,
      "usage: bbrnash <run|model|nash|sweep> --capacity MBPS --rtt MS "
      "--buffer-bdp N [options]\n"
      "  run:   --flows cubic:4,bbr:2 [--duration S] [--warmup S] "
      "[--seed N] [--aqm droptail|red|codel] [--csv]\n"
      "         impairments: [--loss P] [--ack-loss P] [--ge-p-gb P "
      "--ge-p-bg P --ge-loss-bad P]\n"
      "                      [--reorder P --reorder-delay-ms MS] "
      "[--duplicate P] [--jitter-ms MS]\n"
      "         capacity:    [--flap-period-s S --flap-down-s S "
      "--flap-down-mbps M]\n"
      "         watchdog:    [--max-events N] [--max-wall-s S] "
      "[--retries N]\n"
      "         robustness:  [--audit] [--chaos SEED]\n"
      "  model: [--cubic N --bbr N] [--duration S]\n"
      "  nash:  --flows-total N [--empirical] [--trials N] [--duration S]\n"
      "         [--warmup S] [--seed N] [--jobs N] [--challenger CC]\n"
      "         [--tolerance F] [--checkpoint PATH] [--audit] "
      "[--chaos SEED]\n"
      "  sweep: --flows-total N [--workers N] [--lease-ms MS]\n"
      "         [--max-worker-retries N] [--checkpoint PATH] "
      "[--fabric-stats]\n"
      "         [--trials N] [--duration S] [--warmup S] [--seed N] "
      "[--jobs N]\n"
      "         [--challenger CC] [--tolerance F] [--audit] [--chaos SEED]\n"
      "         exit: 0 complete, 1 error, 2 usage, 3 partial, "
      "130 interrupted\n");
  return 2;
}

/// Flags each command accepts; anything else is an error, not a no-op.
const std::vector<std::string>& allowed_keys(const std::string& cmd) {
  static const std::vector<std::string> run_keys = {
      "capacity",     "rtt",      "buffer-bdp",       "flows",
      "duration",     "warmup",   "seed",             "aqm",
      "loss",         "ack-loss", "ge-p-gb",          "ge-p-bg",
      "ge-loss-good", "ge-loss-bad", "reorder",       "reorder-delay-ms",
      "duplicate",    "jitter-ms",   "flap-period-s", "flap-down-s",
      "flap-down-mbps", "max-events", "max-wall-s",   "retries",
      "chaos"};
  static const std::vector<std::string> model_keys = {
      "capacity", "rtt", "buffer-bdp", "cubic", "bbr", "duration"};
  static const std::vector<std::string> nash_keys = {
      "capacity", "rtt",  "buffer-bdp", "flows-total", "trials",
      "duration", "warmup", "seed",     "jobs",        "challenger",
      "tolerance", "checkpoint", "chaos"};
  static const std::vector<std::string> sweep_keys = {
      "capacity", "rtt",  "buffer-bdp", "flows-total", "trials",
      "duration", "warmup", "seed",     "jobs",        "challenger",
      "tolerance", "checkpoint", "chaos", "workers",   "lease-ms",
      "max-worker-retries"};
  static const std::vector<std::string> none;
  if (cmd == "run") return run_keys;
  if (cmd == "model") return model_keys;
  if (cmd == "nash") return nash_keys;
  if (cmd == "sweep") return sweep_keys;
  return none;
}

/// Satellite of the fabric work: a resumed run must never silently absorb
/// checkpoint corruption. Prints the end-of-run checkpoint summary and a
/// distinct warning line when the log had torn/unparseable lines.
void print_checkpoint_summary(const std::string& path, std::size_t records,
                              std::size_t torn) {
  if (path.empty()) return;
  std::printf("checkpoint: %zu record(s) in %s\n", records, path.c_str());
  if (torn > 0) {
    std::fprintf(stderr,
                 "bbrnash: warning: checkpoint log %s had %zu torn/"
                 "unparseable line(s); the affected cells re-ran this run\n",
                 path.c_str(), torn);
  }
}

int cmd_run(const Args& args) {
  const NetworkParams net =
      make_params(args.num("capacity", 100), args.num("rtt", 40),
                  args.num("buffer-bdp", 5));
  Scenario s;
  s.capacity = net.capacity;
  s.buffer_bytes = net.buffer_bytes;
  s.duration = from_sec(args.num("duration", 60));
  s.warmup = from_sec(args.num("warmup", args.num("duration", 60) / 4));
  s.seed = args.u64("seed", 1);
  s.audit.enabled = args.audit;

  const auto aqm = parse_aqm(args.str("aqm", "droptail"));
  if (!aqm) {
    std::fprintf(stderr, "unknown aqm '%s'\n",
                 args.str("aqm", "").c_str());
    return usage();
  }
  s.aqm = *aqm;

  // Data-path / ACK-path impairments.
  s.impairments.loss_rate = args.num("loss", 0);
  s.impairments.gilbert.p_good_to_bad = args.num("ge-p-gb", 0);
  s.impairments.gilbert.p_bad_to_good = args.num("ge-p-bg", 1);
  s.impairments.gilbert.loss_good = args.num("ge-loss-good", 0);
  s.impairments.gilbert.loss_bad = args.num("ge-loss-bad", 1);
  s.impairments.reorder_rate = args.num("reorder", 0);
  s.impairments.reorder_delay = from_ms(args.num("reorder-delay-ms", 0));
  s.impairments.duplicate_rate = args.num("duplicate", 0);
  s.impairments.jitter = from_ms(args.num("jitter-ms", 0));
  s.ack_impairments.loss_rate = args.num("ack-loss", 0);

  // --flows cubic:4,bbr:2,copa:1
  std::stringstream flows{args.str("flows", "cubic:1,bbr:1")};
  std::string part;
  while (std::getline(flows, part, ',')) {
    const auto colon = part.find(':');
    const std::string name = part.substr(0, colon);
    const int count = colon == std::string::npos
                          ? 1
                          : parse_int_strict("--flows", part.substr(colon + 1));
    const auto kind = parse_cc_kind(name);
    if (!kind || count < 0) {
      std::fprintf(stderr, "bad --flows entry '%s'\n", part.c_str());
      return usage();
    }
    for (int i = 0; i < count; ++i) s.flows.push_back({*kind, net.base_rtt});
  }
  if (s.flows.empty()) return usage();

  // Knob validation: a bad value (e.g. --loss 1.5 or --flap-down-s >=
  // --flap-period-s) must exit with a clean one-line diagnosis, never an
  // uncaught exception.
  try {
    if (args.has("flap-period-s")) {
      s.capacity_schedule = make_flap_schedule(
          from_sec(args.num("flap-period-s", 0)),
          from_sec(args.num("flap-down-s", 1)), s.capacity,
          mbps(args.num("flap-down-mbps", to_mbps(s.capacity) / 10)),
          s.duration);
    }
    s.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  GuardConfig guard;
  guard.watchdog.max_events = args.u64("max-events", 0);
  guard.watchdog.max_wall_seconds = args.num("max-wall-s", 0);
  guard.max_attempts = 1 + args.integer("retries", 0);
  if (args.has("chaos")) {
    guard.chaos = std::make_shared<ChaosInjector>(args.u64("chaos", 0));
  }

  const RunOutcome o = run_scenario_guarded(s, guard);
  if (!o.ok()) {
    std::fprintf(stderr,
                 "run failed: %s (%s)\n  seed %llu, %d attempt(s), "
                 "%llu events, reached t=%.2f s\n",
                 to_string(o.status), o.diagnostics.message.c_str(),
                 static_cast<unsigned long long>(o.seed_used), o.attempts,
                 static_cast<unsigned long long>(
                     o.diagnostics.events_executed),
                 to_sec(o.diagnostics.sim_time_reached));
    return 1;
  }
  if (guard.chaos) {
    std::fprintf(stderr, "%s\n", guard.chaos->describe().c_str());
  }
  const RunResult& r = o.result;

  Table table({"flow", "cc", "goodput_mbps", "avg_rtt_ms", "retransmits",
               "avg_queue_kB"});
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const auto& f = r.flows[i];
    table.add_row({std::to_string(i), to_string(f.cc),
                   format_double(to_mbps(f.stats.goodput_bps), 2),
                   format_double(f.stats.avg_rtt_ms, 1),
                   std::to_string(f.stats.retransmits),
                   format_double(f.stats.avg_queue_occupancy_bytes / 1e3, 0)});
  }
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
    std::printf(
        "\nlink utilization %.1f%%, avg queue delay %.1f ms, drops %llu, "
        "aqm %s\n",
        100.0 * r.link_utilization, r.avg_queue_delay_ms,
        static_cast<unsigned long long>(r.total_drops), to_string(s.aqm));
    if (r.data_impairments.offered > 0 || r.ack_impairments.offered > 0) {
      std::printf(
          "impairments: data %llu/%llu dropped (%llu dup, %llu reordered), "
          "ack %llu/%llu dropped\n",
          static_cast<unsigned long long>(r.data_impairments.dropped),
          static_cast<unsigned long long>(r.data_impairments.offered),
          static_cast<unsigned long long>(r.data_impairments.duplicated),
          static_cast<unsigned long long>(r.data_impairments.reordered),
          static_cast<unsigned long long>(r.ack_impairments.dropped),
          static_cast<unsigned long long>(r.ack_impairments.offered));
    }
  }
  return 0;
}

int cmd_model(const Args& args) {
  const NetworkParams net =
      make_params(args.num("capacity", 100), args.num("rtt", 40),
                  args.num("buffer-bdp", 5));
  const int nc = args.integer("cubic", 1);
  const int nb = args.integer("bbr", 1);

  const WarePrediction ware = ware_prediction(
      net, WareInputs{nb, args.num("duration", 120), 1500});
  std::printf("network: %.0f Mbps, %.0f ms, %.1f BDP (%lld bytes buffer)\n",
              to_mbps(net.capacity), to_ms(net.base_rtt), net.buffer_in_bdp(),
              static_cast<long long>(net.buffer_bytes));
  if (nc >= 1 && nb >= 1) {
    const auto iv = prediction_interval(net, nc, nb);
    if (!iv) {
      std::printf("outside the model's validity domain (need B >= 1 BDP)\n");
      return 1;
    }
    std::printf("%d CUBIC vs %d BBR (per-flow Mbps):\n", nc, nb);
    std::printf("  BBR   : %.2f (sync) .. %.2f (desync)\n",
                to_mbps(iv->sync.per_flow_bbr),
                to_mbps(iv->desync.per_flow_bbr));
    std::printf("  CUBIC : %.2f (desync) .. %.2f (sync)\n",
                to_mbps(iv->desync.per_flow_cubic),
                to_mbps(iv->sync.per_flow_cubic));
  }
  std::printf("Ware et al. baseline: BBR aggregate %.2f Mbps (%.0f%%)\n",
              to_mbps(ware.lambda_bbr), 100.0 * ware.bbr_fraction);
  return 0;
}

int cmd_nash(const Args& args) {
  const NetworkParams net =
      make_params(args.num("capacity", 100), args.num("rtt", 40),
                  args.num("buffer-bdp", 5));
  const int total = args.integer("flows-total", 50);
  const auto region = predict_nash_region(net, total);
  if (!region && !args.empirical) {
    std::printf("outside the model's validity domain\n");
    return 1;
  }
  if (region) {
    std::printf(
        "Nash region for %d same-RTT flows on %.0f Mbps / %.0f ms / %.1f "
        "BDP:\n"
        "  CUBIC flows at NE: %.1f (desync bound) .. %.1f (sync bound)\n"
        "  BBR flows at NE:   %.1f .. %.1f\n",
        total, to_mbps(net.capacity), to_ms(net.base_rtt), net.buffer_in_bdp(),
        region->cubic_low(), region->cubic_high(),
        static_cast<double>(total) - region->cubic_high(),
        static_cast<double>(total) - region->cubic_low());
  } else {
    std::printf("model prediction: outside the validity domain\n");
  }
  if (!args.empirical) return 0;

  NashSearchConfig cfg;
  const auto challenger = parse_cc_kind(args.str("challenger", "bbr"));
  if (!challenger) {
    std::fprintf(stderr, "unknown challenger '%s'\n",
                 args.str("challenger", "").c_str());
    return usage();
  }
  cfg.challenger = *challenger;
  cfg.trial.trials = args.integer("trials", 3);
  cfg.trial.duration = from_sec(args.num("duration", 30));
  cfg.trial.warmup = from_sec(args.num("warmup", args.num("duration", 30) / 4));
  cfg.trial.seed = args.u64("seed", 1);
  cfg.trial.jobs = args.integer("jobs", 0);
  cfg.tolerance_frac = args.num("tolerance", cfg.tolerance_frac);
  cfg.checkpoint_path = args.str("checkpoint", "");
  cfg.trial.audit.enabled = args.audit;
  if (args.has("chaos")) {
    cfg.trial.guard.chaos =
        std::make_shared<ChaosInjector>(args.u64("chaos", 0));
  }

  // Probe the checkpoint before the search so the end-of-run summary can
  // report what was resumed and whether the log carried torn lines.
  std::size_t torn_lines = 0;
  if (!cfg.checkpoint_path.empty()) {
    const CheckpointLog probe{cfg.checkpoint_path};
    torn_lines = probe.skipped_lines();
  }

  const int k_ne = find_ne_crossing(net, total, cfg);
  std::printf(
      "empirical NE (crossing search, %d trials x %.0f s per distribution):\n"
      "  %d CUBIC / %d %s flows\n",
      cfg.trial.trials, to_sec(cfg.trial.duration), total - k_ne, k_ne,
      to_string(cfg.challenger));
  std::printf("%s\n", describe(parallel_telemetry()).c_str());
  if (!cfg.checkpoint_path.empty()) {
    const CheckpointLog done{cfg.checkpoint_path};
    print_checkpoint_summary(cfg.checkpoint_path, done.size(), torn_lines);
  }
  if (cfg.trial.guard.chaos) {
    std::fprintf(stderr, "%s\n", cfg.trial.guard.chaos->describe().c_str());
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const NetworkParams net =
      make_params(args.num("capacity", 100), args.num("rtt", 40),
                  args.num("buffer-bdp", 5));
  const int total = args.integer("flows-total", 20);
  if (total < 1) {
    std::fprintf(stderr, "--flows-total must be >= 1\n");
    return usage();
  }

  NashSearchConfig cfg;
  const auto challenger = parse_cc_kind(args.str("challenger", "bbr"));
  if (!challenger) {
    std::fprintf(stderr, "unknown challenger '%s'\n",
                 args.str("challenger", "").c_str());
    return usage();
  }
  cfg.challenger = *challenger;
  cfg.trial.trials = args.integer("trials", 3);
  cfg.trial.duration = from_sec(args.num("duration", 30));
  cfg.trial.warmup = from_sec(args.num("warmup", args.num("duration", 30) / 4));
  cfg.trial.seed = args.u64("seed", 1);
  cfg.trial.jobs = args.integer("jobs", 1);
  cfg.tolerance_frac = args.num("tolerance", cfg.tolerance_frac);
  cfg.checkpoint_path = args.str("checkpoint", "");
  cfg.trial.audit.enabled = args.audit;
  std::shared_ptr<ChaosInjector> chaos;
  if (args.has("chaos")) {
    chaos = std::make_shared<ChaosInjector>(args.u64("chaos", 0));
  }

  const int workers = args.integer("workers", 0);
  const auto print_payoffs = [&](const EmpiricalPayoffs& p,
                                 const std::vector<int>& failed_k) {
    Table table({"k", "cubic_per_flow_mbps",
                 std::string{to_string(cfg.challenger)} + "_per_flow_mbps"});
    for (std::size_t k = 0; k < p.cubic_mbps.size(); ++k) {
      const bool failed =
          std::find(failed_k.begin(), failed_k.end(),
                    static_cast<int>(k)) != failed_k.end();
      table.add_row({std::to_string(k),
                     failed ? "failed" : format_double(p.cubic_mbps[k], 3),
                     failed ? "failed" : format_double(p.other_mbps[k], 3)});
    }
    table.print_aligned(std::cout);
    if (failed_k.empty()) {
      const double fair_mbps = to_mbps(net.capacity) / total;
      SymmetricGame game{total, p.cubic_mbps, p.other_mbps};
      const std::vector<int> ne = game.equilibria(cfg.tolerance_frac * fair_mbps);
      std::string nes;
      for (const int k : ne) {
        if (!nes.empty()) nes += ", ";
        nes += std::to_string(k);
      }
      std::printf("equilibria (k = %s flows on %s)\n", nes.c_str(),
                  to_string(cfg.challenger));
    }
  };

  if (workers <= 0) {
    // In-process reference path (the fabric's bit-identity baseline).
    cfg.trial.guard.chaos = chaos;
    std::size_t torn_lines = 0;
    if (!cfg.checkpoint_path.empty()) {
      const CheckpointLog probe{cfg.checkpoint_path};
      torn_lines = probe.skipped_lines();
    }
    const EmpiricalPayoffs p = measure_payoffs(net, total, cfg);
    print_payoffs(p, {});
    std::printf("%s\n", describe(parallel_telemetry()).c_str());
    if (!cfg.checkpoint_path.empty()) {
      const CheckpointLog done{cfg.checkpoint_path};
      print_checkpoint_summary(cfg.checkpoint_path, done.size(), torn_lines);
    }
    if (chaos) std::fprintf(stderr, "%s\n", chaos->describe().c_str());
    return 0;
  }

  FabricConfig fab;
  fab.workers = workers;
  fab.lease_ms = args.num("lease-ms", 2000.0);
  fab.max_worker_retries = args.integer("max-worker-retries", 3);
  fab.checkpoint_path = cfg.checkpoint_path;
  fab.chaos = chaos;

  FabricSweepOutcome out = run_fabric_sweep(net, total, cfg, fab);
  // A chaos'd supervisor crash-before-commit is resumable by construction
  // (fire-once per commit site): re-run against the same checkpoint until
  // the drill stops firing. The bound is a backstop, not a retry budget.
  for (int redo = 0;
       out.status == FabricStatus::kSupervisorCrashed && redo < 4; ++redo) {
    std::fprintf(stderr, "bbrnash: %s; resuming\n", out.message.c_str());
    out = run_fabric_sweep(net, total, cfg, fab);
  }

  print_payoffs(out.payoffs, out.failed_k);
  const FabricStats& s = out.stats;
  std::printf(
      "fabric: %s — %llu/%llu cells committed (%llu resumed from "
      "checkpoint, %llu failed), %d workers, %llu deaths, %llu hangs, "
      "%llu reassignments, %.1f cells/s\n",
      to_string(out.status),
      static_cast<unsigned long long>(s.cells_committed),
      static_cast<unsigned long long>(s.cells_total),
      static_cast<unsigned long long>(s.cells_from_checkpoint),
      static_cast<unsigned long long>(s.cells_failed), workers,
      static_cast<unsigned long long>(s.worker_deaths),
      static_cast<unsigned long long>(s.worker_hangs),
      static_cast<unsigned long long>(s.cells_reassigned),
      s.cells_per_second);
  if (args.fabric_stats) {
    std::printf("%s\n", fabric_stats_to_record(s).encode().c_str());
  }
  if (!cfg.checkpoint_path.empty()) {
    print_checkpoint_summary(cfg.checkpoint_path,
                             s.cells_from_checkpoint + s.cells_committed,
                             s.checkpoint_skipped_lines);
  }
  if (chaos) std::fprintf(stderr, "%s\n", chaos->describe().c_str());
  if (!out.message.empty()) {
    std::fprintf(stderr, "bbrnash: %s\n", out.message.c_str());
  }

  switch (out.status) {
    case FabricStatus::kComplete:
      return 0;
    case FabricStatus::kPartial:
      return 3;
    case FabricStatus::kInterrupted:
      return 130;
    case FabricStatus::kSupervisorCrashed:
      return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::vector<std::string>& allowed = allowed_keys(cmd);
  if (allowed.empty()) {
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return usage();
  }

  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      if (cmd != "run") {
        std::fprintf(stderr, "unknown flag '--csv' for '%s'\n", cmd.c_str());
        return usage();
      }
      args.csv = true;
      continue;
    }
    if (std::strcmp(argv[i], "--empirical") == 0) {
      if (cmd != "nash") {
        std::fprintf(stderr, "unknown flag '--empirical' for '%s'\n",
                     cmd.c_str());
        return usage();
      }
      args.empirical = true;
      continue;
    }
    if (std::strcmp(argv[i], "--audit") == 0) {
      if (cmd == "model") {
        std::fprintf(stderr, "unknown flag '--audit' for '%s'\n", cmd.c_str());
        return usage();
      }
      args.audit = true;
      continue;
    }
    if (std::strcmp(argv[i], "--fabric-stats") == 0) {
      if (cmd != "sweep") {
        std::fprintf(stderr, "unknown flag '--fabric-stats' for '%s'\n",
                     cmd.c_str());
        return usage();
      }
      args.fabric_stats = true;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
      const std::string key = argv[i] + 2;
      if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
        std::fprintf(stderr, "unknown flag '--%s' for '%s'\n", key.c_str(),
                     cmd.c_str());
        return usage();
      }
      args.kv[key] = argv[i + 1];
      ++i;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return usage();
    }
  }

  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "model") return cmd_model(args);
    if (cmd == "nash") return cmd_nash(args);
    if (cmd == "sweep") return cmd_sweep(args);
  } catch (const std::invalid_argument& e) {
    // A malformed flag value is user error, not a crash: diagnose, show
    // the usage text, and exit 2 like every other bad-flag path.
    std::fprintf(stderr, "invalid flag value: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
