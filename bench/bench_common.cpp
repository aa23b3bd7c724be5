#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "exp/chaos.hpp"
#include "exp/cli_flags.hpp"
#include "exp/parallel.hpp"

namespace bbrnash::bench {

namespace {

[[noreturn]] void usage_exit(const char* prog, unsigned extra,
                             const char* complaint) {
  std::fprintf(stderr,
               "%s\nusage: %s [--csv] [--seed N] "
               "[--fidelity quick|default|full] [--jobs N] [--audit] "
               "[--chaos SEED]%s%s\n",
               complaint, prog,
               (extra & kCheckpointFlag) != 0 ? " [--checkpoint PATH]" : "",
               (extra & kFabricFlags) != 0
                   ? " [--workers N] [--lease-ms MS] "
                     "[--max-worker-retries N] [--fabric-stats]"
                   : "");
  std::exit(2);
}

}  // namespace

BenchOptions parse_options(int argc, char** argv, unsigned extra) {
  BenchOptions opts;
  opts.fidelity = fidelity_from_env();
  const char* prog = argc > 0 ? argv[0] : "bench";
  const bool fabric = (extra & kFabricFlags) != 0;
  const auto value_of = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      const std::string msg = std::string{argv[i]} + " needs a value";
      usage_exit(prog, extra, msg.c_str());
    }
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--csv") {
        opts.csv = true;
      } else if (flag == "--audit") {
        opts.audit = true;
      } else if (flag == "--seed") {
        opts.seed = parse_u64_strict(flag, value_of(i));
      } else if (flag == "--chaos") {
        opts.chaos = std::make_shared<ChaosInjector>(
            parse_u64_strict(flag, value_of(i)));
      } else if (flag == "--fidelity") {
        const std::string v = value_of(i);
        if (v == "quick") {
          opts.fidelity = Fidelity::kQuick;
        } else if (v == "default") {
          opts.fidelity = Fidelity::kDefault;
        } else if (v == "full") {
          opts.fidelity = Fidelity::kFull;
        } else {
          const std::string msg = "--fidelity: unknown level '" + v + "'";
          usage_exit(prog, extra, msg.c_str());
        }
      } else if (flag == "--jobs") {
        opts.jobs = parse_int_strict(flag, value_of(i));
      } else if (flag == "--checkpoint" && (extra & kCheckpointFlag) != 0) {
        opts.checkpoint = value_of(i);
      } else if (flag == "--workers" && fabric) {
        opts.workers = parse_int_strict(flag, value_of(i));
      } else if (flag == "--lease-ms" && fabric) {
        opts.lease_ms = parse_double_strict(flag, value_of(i));
      } else if (flag == "--max-worker-retries" && fabric) {
        opts.max_worker_retries = parse_int_strict(flag, value_of(i));
      } else if (flag == "--fabric-stats" && fabric) {
        opts.fabric_stats = true;
      } else {
        const std::string msg = "unknown flag '" + flag + "'";
        usage_exit(prog, extra, msg.c_str());
      }
    }
  } catch (const std::invalid_argument& e) {
    usage_exit(prog, extra, e.what());
  }
  return opts;
}

void print_banner(const BenchOptions& opts, const std::string& figure,
                  const std::string& description) {
  if (opts.csv) return;
  std::printf("### %s — %s\n", figure.c_str(), description.c_str());
  std::printf("### fidelity=%s (set BBRNASH_FIDELITY=quick|default|full), "
              "jobs=%d\n\n",
              to_string(opts.fidelity), resolve_jobs(opts.jobs));
}

void emit(const BenchOptions& opts, const Table& table) {
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print_aligned(std::cout);
    std::cout << '\n';
  }
}

TrialConfig trial_config(const BenchOptions& opts) {
  TrialConfig cfg;
  cfg.duration = experiment_duration(opts.fidelity);
  cfg.warmup = experiment_warmup(opts.fidelity);
  cfg.trials = experiment_trials(opts.fidelity);
  cfg.seed = opts.seed;
  cfg.jobs = opts.jobs;
  cfg.audit.enabled = opts.audit;
  cfg.guard.chaos = opts.chaos;
  return cfg;
}

void for_each_cell(const BenchOptions& opts, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  parallel_for(opts.jobs, n, fn);
}

void print_parallel_summary(const BenchOptions& opts) {
  if (!opts.csv) {
    std::printf("### %s\n", describe(parallel_telemetry()).c_str());
  }
  if (opts.chaos) {
    std::fprintf(stderr, "%s\n", opts.chaos->describe().c_str());
  }
}

}  // namespace bbrnash::bench
