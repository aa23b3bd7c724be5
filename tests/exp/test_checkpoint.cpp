// Crash-safe checkpointing: append/lookup/reload, torn-write tolerance,
// the canonical cell key (injective, stable across a log round trip,
// pinned), and the acceptance property — a killed-then-resumed sweep or
// NE search reproduces the uninterrupted numbers exactly.
#include "exp/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cli_flags.hpp"
#include "exp/nash_search.hpp"
#include "exp/parallel.hpp"

namespace bbrnash {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

NashSearchConfig quick_cfg() {
  NashSearchConfig cfg;
  cfg.trial.duration = from_sec(8);
  cfg.trial.warmup = from_sec(2);
  cfg.trial.trials = 1;
  cfg.tolerance_frac = 0.10;
  return cfg;
}

TEST(CheckpointLog, RecordLookupAndReload) {
  const std::string path = temp_path("ckpt_basic.jsonl");
  std::remove(path.c_str());
  {
    CheckpointLog log{path};
    EXPECT_EQ(log.size(), 0u);
    EXPECT_FALSE(log.lookup("a").has_value());
    JsonlRecord rec;
    rec.set("x", 0.1 + 0.2);  // not representable exactly in decimal
    rec.set("n", std::uint64_t{42});
    log.record("a", rec);
    JsonlRecord rec2;
    rec2.set("x", -1.5e-300);
    log.record("b", rec2);
    EXPECT_EQ(log.size(), 2u);
  }
  CheckpointLog reloaded{path};
  EXPECT_EQ(reloaded.size(), 2u);
  const auto a = reloaded.lookup("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->get_double("x"), 0.1 + 0.2);  // bit-exact round trip
  EXPECT_EQ(a->get_u64("n"), 42u);
  const auto b = reloaded.lookup("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->get_double("x"), -1.5e-300);
}

TEST(CheckpointLog, LastWriteWinsOnDuplicateKeys) {
  const std::string path = temp_path("ckpt_dup.jsonl");
  std::remove(path.c_str());
  CheckpointLog log{path};
  JsonlRecord r1;
  r1.set("v", 1.0);
  log.record("k", r1);
  JsonlRecord r2;
  r2.set("v", 2.0);
  log.record("k", r2);
  log.flush();  // appends are queued; reach the file before re-reading it
  CheckpointLog reloaded{path};
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_EQ(reloaded.lookup("k")->get_double("v"), 2.0);
}

TEST(CheckpointLog, TornTrailingWriteIsSkipped) {
  const std::string path = temp_path("ckpt_torn.jsonl");
  std::remove(path.c_str());
  {
    CheckpointLog log{path};
    JsonlRecord rec;
    rec.set("v", 7.0);
    log.record("good", rec);
  }
  // Simulate a crash mid-append: an unterminated record at EOF.
  std::ofstream out{path, std::ios::app};
  out << R"({"key":"bad","v":3.1)";
  out.close();

  CheckpointLog reloaded{path};
  EXPECT_EQ(reloaded.size(), 1u);
  ASSERT_TRUE(reloaded.lookup("good").has_value());
  EXPECT_FALSE(reloaded.lookup("bad").has_value());
}

// Satellite: N workers hammer one log with interleaved lookups and
// appends; a resume then round-trips every cell entry-for-entry, survives
// a torn trailing write, and repairs the file on the next append.
TEST(CheckpointLog, ConcurrentHammerThenResumeRoundTrips) {
  const std::string path = temp_path("ckpt_hammer.jsonl");
  std::remove(path.c_str());
  constexpr std::size_t kKeys = 32;
  constexpr std::size_t kOps = 256;
  const auto key_of = [](std::size_t k) {
    return "cell " + std::to_string(k);
  };

  std::vector<JsonlRecord> snapshot;
  {
    CheckpointLog log{path};
    TrialPool pool{8};
    pool.parallel_for(kOps, [&](std::size_t i) {
      const std::size_t k = i % kKeys;
      (void)log.lookup(key_of(k));             // interleaved reads...
      (void)log.lookup(key_of((k + 7) % kKeys));
      JsonlRecord rec;
      rec.set("op", static_cast<std::uint64_t>(i));
      rec.set("v", 0.1 * static_cast<double>(i) + 1e-13);
      log.record(key_of(k), rec);              // ...and writes
      const auto back = log.lookup(key_of(k));
      EXPECT_TRUE(back.has_value());           // own write is visible
    });
    log.flush();
    EXPECT_EQ(log.size(), kKeys);
    // The in-memory view the workers were served is the ground truth the
    // reload must reproduce (record keeps map order == file order per key).
    for (std::size_t k = 0; k < kKeys; ++k) {
      const auto rec = log.lookup(key_of(k));
      ASSERT_TRUE(rec.has_value()) << key_of(k);
      snapshot.push_back(*rec);
    }
  }

  // Crash mid-append: unterminated garbage at EOF.
  {
    std::ofstream out{path, std::ios::app};
    out << R"({"key":"torn","v":1.2)";
  }

  CheckpointLog resumed{path};
  EXPECT_EQ(resumed.size(), kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const auto rec = resumed.lookup(key_of(k));
    ASSERT_TRUE(rec.has_value()) << key_of(k);
    EXPECT_TRUE(*rec == snapshot[k]) << key_of(k);  // entry-for-entry
  }

  // The next append repairs the file: the torn line is terminated and
  // skipped, the new record parses, nothing else is lost.
  JsonlRecord extra;
  extra.set("v", 9.0);
  resumed.record("extra", extra);
  resumed.flush();
  CheckpointLog repaired{path};
  EXPECT_EQ(repaired.size(), kKeys + 1);
  ASSERT_TRUE(repaired.lookup("extra").has_value());
  EXPECT_EQ(repaired.lookup("extra")->get_double("v"), 9.0);
}

TEST(Checkpoint, KeyCoversEveryOutcomeChangingKnob) {
  const NetworkParams net = make_params(20, 20, 3);
  const TrialConfig base;
  const auto key = [&](const TrialConfig& cfg) {
    return mix_checkpoint_key(net, 1, 1, CcKind::kBbr, cfg);
  };

  // Each variant flips exactly one knob that changes measured numbers; a
  // sweep over any of them must never collide with the pristine cell or
  // with each other.
  std::vector<std::string> keys = {key(base)};
  const auto add_variant = [&](const auto& mutate) {
    TrialConfig c = base;
    mutate(c);
    keys.push_back(key(c));
  };
  add_variant([](TrialConfig& c) { c.impairments.loss_rate = 0.01; });
  add_variant([](TrialConfig& c) { c.impairments.reorder_rate = 0.01; });
  add_variant([](TrialConfig& c) { c.impairments.reorder_delay = from_ms(5); });
  add_variant([](TrialConfig& c) { c.impairments.duplicate_rate = 0.01; });
  add_variant([](TrialConfig& c) { c.impairments.jitter = from_ms(2); });
  add_variant([](TrialConfig& c) {
    c.impairments.spikes = {from_ms(100), from_ms(10), from_ms(3)};
  });
  add_variant([](TrialConfig& c) { c.ack_impairments.loss_rate = 0.01; });
  add_variant([](TrialConfig& c) { c.ack_impairments.reorder_rate = 0.01; });
  add_variant([](TrialConfig& c) { c.ack_impairments.jitter = from_ms(2); });
  add_variant([](TrialConfig& c) { c.guard.watchdog.max_events = 1000; });
  add_variant([](TrialConfig& c) { c.guard.watchdog.max_wall_seconds = 2.0; });
  add_variant([](TrialConfig& c) { c.guard.max_attempts = 3; });
  add_variant([](TrialConfig& c) { c.guard.seed_bump = 7; });
  add_variant(
      [&](TrialConfig& c) { c.guard.inject_failure_seeds = {base.seed}; });
  add_variant([](TrialConfig& c) {
    c.capacity_schedule = {{from_sec(1), mbps(10)}};
  });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;
    }
  }

  // Two Gilbert-Elliott chains with the same stationary loss rate but
  // different burstiness measure differently, so they must key differently.
  TrialConfig g1 = base;
  TrialConfig g2 = base;
  g1.impairments.gilbert = {0.01, 0.09, 0.0, 1.0};
  g2.impairments.gilbert = {0.02, 0.18, 0.0, 1.0};
  ASSERT_DOUBLE_EQ(g1.impairments.gilbert.expected_loss_rate(),
                   g2.impairments.gilbert.expected_loss_rate());
  EXPECT_NE(key(g1), key(g2));

  // Capacity schedules of equal length but different flap times or rates.
  TrialConfig s1 = base;
  TrialConfig s2 = base;
  TrialConfig s3 = base;
  s1.capacity_schedule = {{from_sec(1), mbps(10)}};
  s2.capacity_schedule = {{from_sec(2), mbps(10)}};
  s3.capacity_schedule = {{from_sec(1), mbps(5)}};
  EXPECT_NE(key(s1), key(s2));
  EXPECT_NE(key(s1), key(s3));
}

// Float knobs enter keys through canonical_double, never truncated.

TEST(CanonicalDouble, RoundTripsThroughTextExactly) {
  // Subnormals (e.g. 4.9e-324) are deliberately absent: glibc strtod flags
  // them ERANGE and parse_double_strict rejects ERANGE outright, so they can
  // never appear in a key that came through the strict parsers. 1e-300 is
  // the small-magnitude probe that stays in normal range.
  const std::vector<double> values = {
      0.1 + 0.2,      1.0 / 3.0, 3.141592653589793, 1e-300,
      12500000.0,     12500000.25, 1e308,           -0.0,   42.0,
      1e9 + 1e-3};
  for (const double v : values) {
    const std::string text = canonical_double(v);
    const double back = parse_double_strict("roundtrip", text);
    EXPECT_EQ(back, v) << text;
    // Idempotent: re-canonicalizing the parsed value changes nothing, so a
    // key rebuilt after a log round trip is the same string.
    EXPECT_EQ(canonical_double(back), text);
  }
}

TEST(CanonicalDouble, KeysDistinguishSubByteCapacities) {
  const TrialConfig trial = quick_cfg().trial;
  NetworkParams a = make_params(100, 40, 4);
  NetworkParams b = a;
  // Below 1 byte/sec apart: the old static_cast<long long> truncation
  // collapsed these into one cell key.
  b.capacity = a.capacity + 0.25;
  EXPECT_NE(mix_checkpoint_key(a, 1, 1, CcKind::kBbr, trial),
            mix_checkpoint_key(b, 1, 1, CcKind::kBbr, trial));
}

TEST(CanonicalDouble, KeyPinnedForReferenceConfig) {
  // The full canonical key for a plain 1v1 cell. This string is shared by
  // sweeps, NE searches and fabric leases ("lease " + key); changing it
  // orphans every existing checkpoint, so the change must be deliberate
  // (update this pin AND the key-pin note in DESIGN.md).
  const NetworkParams net = make_params(100, 40, 4);
  const std::string key =
      mix_checkpoint_key(net, 1, 1, CcKind::kBbr, TrialConfig{});
  EXPECT_EQ(key,
            "mix c=12500000 b=2000000 r=40000000 nc=1 no=1 cc=bbr "
            "d=40000000000 w=8000000000 t=3 s=1 di.l=0 di.gpgb=0 di.gpbg=1 "
            "di.glg=0 di.glb=1 di.ro=0 di.rod=0 di.dup=0 di.j=0 di.spp=0 "
            "di.spw=0 di.spm=0 ai.l=0 ai.gpgb=0 ai.gpbg=1 ai.glg=0 "
            "ai.glb=1 ai.ro=0 ai.rod=0 ai.dup=0 ai.j=0 ai.spp=0 ai.spw=0 "
            "ai.spm=0 g.ev=0 g.wall=0 g.att=1 g.bump=2654435769");
  // Resume equivalence: the key rebuilt from a capacity that round-tripped
  // through the log's %.17g encoding is the same string.
  NetworkParams resumed = net;
  resumed.capacity =
      parse_double_strict("cap", canonical_double(net.capacity));
  EXPECT_EQ(mix_checkpoint_key(resumed, 1, 1, CcKind::kBbr, TrialConfig{}),
            key);
}

TEST(OracleKey, InjectiveUnderKnobFuzz) {
  // Every generated cell differs from every other in at least one of
  // buffer, flow counts, seed, loss rate and capacity schedule; all keys
  // must be distinct. Exercises ints, floats and the schedule.
  std::set<std::string> keys;
  int generated = 0;
  for (int i = 0; i < 60; ++i) {
    const NetworkParams net = make_params(100, 40, 2 + (i % 5));
    TrialConfig trial = quick_cfg().trial;
    trial.seed = 1 + static_cast<std::uint64_t>(i / 15);
    trial.impairments.loss_rate = (i % 2 == 0) ? 0.0 : 1e-3 * (1 + i);
    if (i % 7 == 0) {
      trial.capacity_schedule.push_back(
          RateChange{from_sec(1 + i), net.capacity * (0.5 + 0.001 * i)});
    }
    keys.insert(mix_checkpoint_key(net, 1 + (i % 3), 1 + (i / 3) % 2,
                                   CcKind::kBbr, trial));
    ++generated;
  }
  EXPECT_EQ(static_cast<int>(keys.size()), generated);
}

TEST(Checkpoint, FailureListRoundTripsEntryForEntry) {
  MixOutcome m;
  m.trials_completed = 1;
  m.trials_failed = 2;
  m.failures = {"trial 0 (seed 1, 2 attempts): invariant-violation: q > B",
                "trial 2 (seed 9, 1 attempts): error: boom"};
  const MixOutcome back = mix_from_record(mix_to_record(m));
  ASSERT_EQ(back.failures.size(), m.failures.size());
  EXPECT_EQ(back.failures[0], m.failures[0]);
  EXPECT_EQ(back.failures[1], m.failures[1]);
  const MixOutcome clean = mix_from_record(mix_to_record(MixOutcome{}));
  EXPECT_TRUE(clean.failures.empty());
}

TEST(Checkpoint, MixOutcomeRoundTripsExactly) {
  const NetworkParams net = make_params(20, 20, 3);
  TrialConfig cfg;
  cfg.duration = from_sec(8);
  cfg.warmup = from_sec(2);
  cfg.trials = 1;
  const MixOutcome m = run_mix_trials(net, 1, 1, CcKind::kBbr, cfg);
  const MixOutcome back = mix_from_record(mix_to_record(m));
  EXPECT_EQ(back.per_flow_cubic_mbps, m.per_flow_cubic_mbps);
  EXPECT_EQ(back.per_flow_other_mbps, m.per_flow_other_mbps);
  EXPECT_EQ(back.total_cubic_mbps, m.total_cubic_mbps);
  EXPECT_EQ(back.avg_queue_delay_ms, m.avg_queue_delay_ms);
  EXPECT_EQ(back.link_utilization, m.link_utilization);
  EXPECT_EQ(back.cubic_buffer_avg, m.cubic_buffer_avg);
  EXPECT_EQ(back.trials_completed, m.trials_completed);
}

TEST(Checkpoint, ResumedPayoffMeasurementMatchesUninterrupted) {
  const NetworkParams net = make_params(20, 20, 3);
  const int total_flows = 3;
  NashSearchConfig cfg = quick_cfg();

  // Ground truth: uninterrupted, no checkpoint.
  const EmpiricalPayoffs truth = measure_payoffs(net, total_flows, cfg);

  // First pass fills the checkpoint; then "crash": drop the last finished
  // cell AND leave a torn half-record behind.
  const std::string path = temp_path("ckpt_payoffs.jsonl");
  std::remove(path.c_str());
  cfg.checkpoint_path = path;
  (void)measure_payoffs(net, total_flows, cfg);

  std::vector<std::string> lines;
  {
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(total_flows) + 1);
  {
    std::ofstream out{path, std::ios::trunc};
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << '\n';
    out << lines.back().substr(0, lines.back().size() / 2);  // torn write
  }

  const EmpiricalPayoffs resumed = measure_payoffs(net, total_flows, cfg);
  ASSERT_EQ(resumed.cubic_mbps.size(), truth.cubic_mbps.size());
  for (std::size_t k = 0; k < truth.cubic_mbps.size(); ++k) {
    EXPECT_EQ(resumed.cubic_mbps[k], truth.cubic_mbps[k]) << "k=" << k;
    EXPECT_EQ(resumed.other_mbps[k], truth.other_mbps[k]) << "k=" << k;
  }
  // The re-run repaired the log: every cell is recorded again.
  CheckpointLog repaired{path};
  EXPECT_EQ(repaired.size(), static_cast<std::size_t>(total_flows) + 1);
}

TEST(Checkpoint, ResumedCrossingSearchFindsSameNe) {
  const NetworkParams net = make_params(20, 20, 5);
  const int total_flows = 4;
  NashSearchConfig cfg = quick_cfg();

  const int truth = find_ne_crossing(net, total_flows, cfg);

  const std::string path = temp_path("ckpt_crossing.jsonl");
  std::remove(path.c_str());
  cfg.checkpoint_path = path;
  EXPECT_EQ(find_ne_crossing(net, total_flows, cfg), truth);

  // Kill after partial progress: keep only the first checkpointed cell.
  std::vector<std::string> lines;
  {
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  {
    std::ofstream out{path, std::ios::trunc};
    out << lines.front() << '\n';
  }
  EXPECT_EQ(find_ne_crossing(net, total_flows, cfg), truth);
}

TEST(Checkpoint, NullLogFallsThroughToPlainRun) {
  const NetworkParams net = make_params(20, 20, 3);
  TrialConfig cfg;
  cfg.duration = from_sec(8);
  cfg.warmup = from_sec(2);
  cfg.trials = 1;
  const MixOutcome a = run_mix_trials(net, 1, 1, CcKind::kBbr, cfg);
  const MixOutcome b =
      run_mix_trials_checkpointed(net, 1, 1, CcKind::kBbr, cfg, nullptr);
  EXPECT_EQ(a.per_flow_cubic_mbps, b.per_flow_cubic_mbps);
  EXPECT_EQ(a.per_flow_other_mbps, b.per_flow_other_mbps);
}

}  // namespace
}  // namespace bbrnash
