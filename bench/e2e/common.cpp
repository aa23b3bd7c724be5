#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "exp/cli_flags.hpp"
#include "util/rng.hpp"

namespace bbrnash::e2e {

namespace {

constexpr std::size_t kFig3Cells = 120;  // 4 panels x buffers 1..30 BDP
constexpr std::size_t kNePoints = 24;    // {50,100} Mbps x 3 RTTs x 4 buffers

/// Fixed shuffle of [0, n): independent of --seed, so every run of a
/// workload visits the grid in the same order.
template <std::size_t N>
std::array<std::size_t, N> grid_order(std::uint64_t salt) {
  std::array<std::size_t, N> order{};
  for (std::size_t i = 0; i < N; ++i) order[i] = i;
  Rng rng{salt};
  for (std::size_t i = N - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  return order;
}

NetworkParams fig3_network(std::size_t u) {
  static const auto order = grid_order<kFig3Cells>(0xF16'03);
  const std::size_t c = order[u % kFig3Cells];
  constexpr double kPanels[4][2] = {{50, 40}, {50, 80}, {100, 40}, {100, 80}};
  const auto& panel = kPanels[c / 30];
  return make_params(panel[0], panel[1], static_cast<double>(c % 30 + 1));
}

NetworkParams ne_network(std::size_t u) {
  static const auto order = grid_order<kNePoints>(0xF16'09);
  const std::size_t p = order[u % kNePoints];
  constexpr double kCaps[] = {50, 100};
  constexpr double kRtts[] = {20, 40, 80};
  constexpr double kBuffers[] = {2, 5, 12, 30};
  return make_params(kCaps[p / 12], kRtts[(p / 4) % 3], kBuffers[p % 4]);
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kTrials50Flow:
      return "trials_50flow";
    case Workload::kNeFig9:
      return "ne_fig9";
    case Workload::kFig3TwoFlow:
      return "fig3_two_flow";
    case Workload::kImpaired8Flow:
      return "impaired_8flow";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::size_t smoke_units(Workload w) {
  switch (w) {
    case Workload::kNeFig9:
      return 2;
    case Workload::kFig3TwoFlow:
      return 4;
    case Workload::kTrials50Flow:
    case Workload::kImpaired8Flow:
      break;
  }
  return 2;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      const auto w = parse_workload(name);
      if (!w) throw std::invalid_argument{"unknown workload '" + name + "'"};
      o.workloads.push_back(*w);
    } else if (arg == "--seed") {
      o.seed = parse_u64_strict(arg, value());
    } else if (arg == "--seconds") {
      o.seconds = parse_double_strict(arg, value());
      if (o.seconds <= 0.0) throw std::invalid_argument{"--seconds must be > 0"};
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--run-dir") {
      o.run_dir = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--check-expected") {
      o.check_expected = value();
    } else if (arg == "--write-expected") {
      o.write_expected = value();
    } else if (arg == "--compare") {
      o.compare.push_back(value());
      o.compare.push_back(value());
    } else {
      throw std::invalid_argument{"unknown argument '" + arg + "'"};
    }
  }
  return o;
}

std::uint64_t unit_seed(std::uint64_t seed, std::size_t u) {
  return seed + static_cast<std::uint64_t>(u) * 1000003ULL;
}

NetworkParams unit_network(Workload w, std::size_t u) {
  switch (w) {
    case Workload::kNeFig9:
      return ne_network(u);
    case Workload::kFig3TwoFlow:
      return fig3_network(u);
    case Workload::kImpaired8Flow:
      return make_params(100, 40, 1);
    case Workload::kTrials50Flow:
      break;
  }
  return make_params(100, 40, 2);
}

Scenario unit_scenario(Workload w, std::uint64_t seed, std::size_t u) {
  const NetworkParams net = unit_network(w, u);
  Scenario s;
  switch (w) {
    case Workload::kTrials50Flow:
      s = make_mix_scenario(net, 25, 25);
      s.duration = from_sec(120);
      s.warmup = from_sec(15);
      break;
    case Workload::kNeFig9:
      s = make_mix_scenario(net, kNeFlows / 2, kNeFlows / 2);
      s.duration = from_sec(60);
      s.warmup = from_sec(15);
      break;
    case Workload::kFig3TwoFlow:
      s = make_mix_scenario(net, 1, 1);
      s.duration = from_sec(120);
      s.warmup = from_sec(15);
      break;
    case Workload::kImpaired8Flow:
      s = make_mix_scenario(net, 4, 4);
      s.duration = from_sec(60);
      s.warmup = from_sec(10);
      s.impairments.gilbert = {0.001, 0.2, 0.0, 0.3};
      s.impairments.jitter = from_ms(2);
      s.impairments.reorder_rate = 0.001;
      s.impairments.reorder_delay = from_ms(5);
      s.ack_impairments.loss_rate = 0.005;
      break;
  }
  s.seed = unit_seed(seed, u);
  return s;
}

NashSearchConfig ne_config(std::uint64_t seed, std::size_t u,
                           const std::string& log_path) {
  NashSearchConfig cfg;
  cfg.trial.duration = from_sec(60);
  cfg.trial.warmup = from_sec(15);
  cfg.trial.trials = 3;
  cfg.trial.seed = unit_seed(seed, u);
  cfg.trial.jobs = 1;
  cfg.checkpoint_path = log_path;
  return cfg;
}

ProcStats proc_stats() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcStats p;
  p.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  p.invol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  // ru_maxrss survives execve, so it can report the parent's peak; the
  // kernel's per-image high-water mark (VmHWM, KiB) cannot.
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      p.peak_rss_mb = kib / 1024.0;
      break;
    }
    status.ignore(1 << 16, '\n');
  }
  return p;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    // A non-finite reading is a harness bug; it must not pass as a number.
    if (!std::isfinite(x.value)) correct = false;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(),
                  std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
    m += buf;
  }
  char head[128];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string{head} + "\"metrics\": {" + m + "}}";
}

void print_metrics(Workload w, const std::vector<Metric>& metrics) {
  for (const Metric& x : metrics) {
    std::printf("%-15s %-36s %16.6g %s\n", to_string(w), x.name.c_str(),
                x.value, x.unit.c_str());
  }
}

std::string fresh_run_dir(const Options& opts, Workload w, const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::path{opts.run_dir} /
      (std::string{to_string(w)} + "-s" + std::to_string(opts.seed) + tag);
  // Stale checkpoint logs would be replayed instead of simulated.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace bbrnash::e2e
