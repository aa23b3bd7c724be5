// Payoff-oracle differential battery.
//
// The oracle's whole value is that its cheap tiers are *indistinguishable*
// from running the simulator (exact tier) or honestly labelled as
// approximations (interpolated / model-only). This suite proves that
// differentially:
//   * exact answers are bit-identical to a direct run_mix_trials call,
//     whether computed this process, hydrated from a checkpoint/fabric
//     JSONL, or re-served after a kill-and-resume of the cache log;
//   * the model-only tier reproduces the prediction_interval midpoint
//     arithmetic bit-for-bit across the golden 1..30 BDP grid;
//   * interpolation is convex (never outside the corner cells), never
//     extrapolates outside the cached hull, reproduces multilinear
//     functions exactly on synthetic lattices, and tracks the real
//     simulator within a pinned tolerance at midpoint queries;
//   * canonical keys are injective under knob fuzz and survive a
//     value -> %.17g text -> value round trip unchanged (the satellite
//     fix: capacities and scheduled rates are no longer integer-truncated);
//   * no_compute NEVER fabricates numbers, corrupted cache records never
//     become answers, and a shared oracle stays correct under a
//     multi-threaded query hammer (this file carries the tsan label).
#include "exp/oracle.hpp"

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/checkpoint.hpp"
#include "exp/cli_flags.hpp"
#include "model/mishra_model.hpp"
#include "util/jsonl.hpp"

namespace bbrnash {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TrialConfig quick_trial() {
  TrialConfig t;
  t.duration = from_sec(5);
  t.warmup = from_sec(1);
  t.trials = 1;
  t.seed = 1;
  t.jobs = 1;
  return t;
}

OracleQuery make_oq(double buffer_bdp, int nc, int no,
                    const TrialConfig& trial) {
  OracleQuery q;
  q.net = make_params(100, 40, buffer_bdp);
  q.num_cubic = nc;
  q.num_other = no;
  q.trial = trial;
  return q;
}

void expect_same_snapshot(
    const std::vector<std::pair<std::string, MixOutcome>>& a,
    const std::vector<std::pair<std::string, MixOutcome>>& b);

void expect_same_outcome(const MixOutcome& a, const MixOutcome& b) {
  EXPECT_EQ(a.per_flow_cubic_mbps, b.per_flow_cubic_mbps);
  EXPECT_EQ(a.per_flow_other_mbps, b.per_flow_other_mbps);
  EXPECT_EQ(a.total_cubic_mbps, b.total_cubic_mbps);
  EXPECT_EQ(a.total_other_mbps, b.total_other_mbps);
  EXPECT_EQ(a.avg_queue_delay_ms, b.avg_queue_delay_ms);
  EXPECT_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.cubic_buffer_avg, b.cubic_buffer_avg);
  EXPECT_EQ(a.cubic_buffer_min, b.cubic_buffer_min);
  EXPECT_EQ(a.noncubic_buffer_avg, b.noncubic_buffer_avg);
  EXPECT_EQ(a.trials_completed, b.trials_completed);
  EXPECT_EQ(a.trials_retried, b.trials_retried);
  EXPECT_EQ(a.trials_failed, b.trials_failed);
  EXPECT_EQ(a.failures, b.failures);
}

void expect_same_snapshot(
    const std::vector<std::pair<std::string, MixOutcome>>& a,
    const std::vector<std::pair<std::string, MixOutcome>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    expect_same_outcome(a[i].second, b[i].second);
  }
}

// --- satellite: float canonicalization in keys ---------------------------

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
  const TrialConfig trial = quick_trial();
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
  // sweeps, fabric leases ("lease " + key) and the oracle cache; changing
  // it orphans every existing checkpoint, so the change must be deliberate
  // (update this pin AND bump the cache schema note in DESIGN.md).
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
  // Every generated config differs from every other in at least one knob;
  // all keys must be distinct. Exercises ints, floats and the schedule.
  std::set<std::string> keys;
  int generated = 0;
  for (int i = 0; i < 60; ++i) {
    OracleQuery q = make_oq(2 + (i % 5), 1 + (i % 3), 1 + (i / 3) % 2,
                            quick_trial());
    q.trial.seed = 1 + static_cast<std::uint64_t>(i / 15);
    q.trial.impairments.loss_rate = (i % 2 == 0) ? 0.0 : 1e-3 * (1 + i);
    if (i % 7 == 0) {
      q.trial.capacity_schedule.push_back(
          RateChange{from_sec(1 + i), q.net.capacity * (0.5 + 0.001 * i)});
    }
    keys.insert(oracle_key(q));
    ++generated;
  }
  EXPECT_EQ(static_cast<int>(keys.size()), generated);
}

TEST(OracleKey, AxesRoundTripAndGarbageRejected) {
  const OracleQuery q = make_oq(6, 3, 2, quick_trial());
  const std::string key = oracle_key(q);
  const auto axes = parse_mix_key_axes(key);
  ASSERT_TRUE(axes.has_value());
  EXPECT_EQ(axes->buffer, q.net.buffer_bytes);
  EXPECT_EQ(axes->num_cubic, 3);
  EXPECT_EQ(axes->num_other, 2);
  EXPECT_EQ(axes->base.find(" b="), std::string::npos);
  EXPECT_EQ(axes->base.find(" nc="), std::string::npos);
  EXPECT_EQ(axes->base.find(" no="), std::string::npos);
  // Two cells differing only in the lattice axes share a base.
  const auto axes2 = parse_mix_key_axes(oracle_key(make_oq(9, 1, 5,
                                                           quick_trial())));
  ASSERT_TRUE(axes2.has_value());
  EXPECT_EQ(axes->base, axes2->base);

  // Corrupt or foreign keys never yield lattice coordinates.
  EXPECT_FALSE(parse_mix_key_axes("nash c=1 b=2").has_value());
  EXPECT_FALSE(parse_mix_key_axes(lease_key(key)).has_value());
  std::string bad = key;
  bad.replace(bad.find("nc=3"), 4, "nc=3x");
  EXPECT_FALSE(parse_mix_key_axes(bad).has_value());
  std::string missing = key;
  missing.erase(missing.find(" b="), std::string{" b=2000000"}.size());
  EXPECT_FALSE(parse_mix_key_axes(missing).has_value());
}

// --- model-only tier: differential vs the closed forms -------------------

TEST(OracleModelTier, MatchesPredictionIntervalMidpointOnGoldenGrid) {
  // The golden grid (tests/golden/mishra_two_flow.jsonl) spans B = 1..30
  // BDP at 100 Mbps / 40 ms. For every point, the oracle's model-only
  // answer must equal the midpoint arithmetic over prediction_interval
  // bit-for-bit — the tier is a relabelling of the model, never a fudge.
  const std::string golden =
      std::string{BBRNASH_GOLDEN_DIR} + "/mishra_two_flow.jsonl";
  const std::vector<JsonlRecord> rows = read_jsonl(golden);
  ASSERT_GE(rows.size(), 30u);

  OracleConfig cfg;
  cfg.no_compute = true;  // the model tier must answer without simulating
  PayoffOracle oracle{cfg};
  for (const JsonlRecord& row : rows) {
    const double bdp = row.get_double("buffer_bdp");
    const NetworkParams net = make_params(row.get_double("capacity_mbps"),
                                          row.get_double("rtt_ms"), bdp);
    const OracleAnswer a = oracle.query(make_oq(bdp, 1, 1, TrialConfig{}));
    ASSERT_TRUE(a.ok()) << "bdp " << bdp;
    EXPECT_EQ(a.fidelity, OracleFidelity::kModelOnly);

    const auto iv = prediction_interval(net, 1, 1);
    ASSERT_TRUE(iv.has_value());
    EXPECT_EQ(a.outcome.per_flow_cubic_mbps,
              to_mbps(0.5 * (iv->sync.per_flow_cubic +
                             iv->desync.per_flow_cubic)));
    EXPECT_EQ(a.outcome.per_flow_other_mbps,
              to_mbps(0.5 * (iv->sync.per_flow_bbr +
                             iv->desync.per_flow_bbr)));
    EXPECT_EQ(a.outcome.total_cubic_mbps,
              to_mbps(0.5 * (iv->sync.aggregate.lambda_cubic +
                             iv->desync.aggregate.lambda_cubic)));
    EXPECT_EQ(a.outcome.noncubic_buffer_avg,
              0.5 * (iv->sync.aggregate.bbr_buffer_bytes +
                     iv->desync.aggregate.bbr_buffer_bytes));
    // A model answer is visibly synthetic: no trials ran.
    EXPECT_EQ(a.outcome.trials_completed, 0);
    EXPECT_EQ(a.outcome.trials_failed, 0);
  }
  EXPECT_EQ(oracle.stats().model_only, oracle.stats().queries);
}

// --- exact tier: differential vs run_mix_trials --------------------------

TEST(OracleExactTier, BitIdenticalToDirectRun) {
  const TrialConfig trial = quick_trial();
  const std::string cache = temp_path("oracle_exact.jsonl");
  std::remove(cache.c_str());

  struct Cell {
    double bdp;
    int nc, no;
  };
  const std::vector<Cell> cells = {{2, 1, 1}, {4, 1, 1}, {4, 2, 1}};

  OracleConfig cfg;
  cfg.cache_path = cache;
  PayoffOracle oracle{cfg};
  for (const Cell& c : cells) {
    const OracleQuery q = make_oq(c.bdp, c.nc, c.no, trial);
    const MixOutcome direct =
        run_mix_trials(q.net, c.nc, c.no, CcKind::kBbr, trial);

    const OracleAnswer computed = oracle.query(q);
    ASSERT_TRUE(computed.ok());
    EXPECT_EQ(computed.fidelity, OracleFidelity::kExact);
    expect_same_outcome(computed.outcome, direct);

    const OracleAnswer hit = oracle.query(q);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.fidelity, OracleFidelity::kExact);
    expect_same_outcome(hit.outcome, direct);
  }
  const OracleStats s = oracle.stats();
  EXPECT_EQ(s.computed, cells.size());
  EXPECT_EQ(s.exact_hits, cells.size());
  EXPECT_EQ(oracle.cache_size(), cells.size());
}

TEST(OracleExactTier, ColdHydratedAndResumedCachesAgreeEntryForEntry) {
  const TrialConfig trial = quick_trial();
  const std::string cold_cache = temp_path("oracle_cold.jsonl");
  const std::string torn_cache = temp_path("oracle_torn.jsonl");
  std::remove(cold_cache.c_str());
  std::remove(torn_cache.c_str());

  const std::vector<double> bdps = {2, 3, 4};

  // Cold start: every cell computes.
  std::vector<std::pair<std::string, MixOutcome>> cold_snap;
  {
    OracleConfig cfg;
    cfg.cache_path = cold_cache;
    PayoffOracle cold{cfg};
    for (const double bdp : bdps) {
      ASSERT_TRUE(cold.query(make_oq(bdp, 1, 1, trial)).ok());
    }
    cold.flush();
    cold_snap = cold.snapshot();
    ASSERT_EQ(cold_snap.size(), bdps.size());
  }

  // Hydrated from the cold oracle's log (as a read-only side file): the
  // memo matches entry-for-entry before a single query runs.
  {
    OracleConfig cfg;
    cfg.hydrate_paths = {cold_cache};
    cfg.no_compute = true;
    cfg.allow_model = false;
    PayoffOracle hydrated{cfg};
    expect_same_snapshot(hydrated.snapshot(), cold_snap);
    for (const double bdp : bdps) {
      const OracleAnswer a = hydrated.query(make_oq(bdp, 1, 1, trial));
      ASSERT_TRUE(a.ok());
      EXPECT_EQ(a.fidelity, OracleFidelity::kExact);
    }
    EXPECT_EQ(hydrated.stats().exact_hits, bdps.size());
  }

  // Kill-and-resume: replay the log with its tail torn mid-append (the
  // crash left half a line). The resumed oracle serves the surviving
  // cells, recomputes the lost one, and converges to the same memo.
  {
    std::ifstream in{cold_cache};
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), bdps.size());
    std::ofstream out{torn_cache, std::ios::trunc};
    out << lines[0] << '\n' << lines[1] << '\n'
        << lines[2].substr(0, lines[2].size() / 2);  // no newline: torn
  }
  {
    OracleConfig cfg;
    cfg.cache_path = torn_cache;
    PayoffOracle resumed{cfg};
    EXPECT_EQ(resumed.cache_size(), bdps.size() - 1);
    EXPECT_GE(resumed.stats().hydrate_skipped_lines, 1u);
    for (const double bdp : bdps) {
      ASSERT_TRUE(resumed.query(make_oq(bdp, 1, 1, trial)).ok());
    }
    EXPECT_EQ(resumed.stats().computed, 1u);  // only the torn cell re-ran
    expect_same_snapshot(resumed.snapshot(), cold_snap);
  }

  // Checkpoint logs from the sweep machinery hydrate identically: the
  // oracle shares their key space, so a finished sweep IS a warm cache.
  {
    const std::string sweep_log = temp_path("oracle_sweeplog.jsonl");
    std::remove(sweep_log.c_str());
    {
      CheckpointLog log{sweep_log};
      const OracleQuery q = make_oq(2, 1, 1, trial);
      (void)run_mix_trials_checkpointed(q.net, 1, 1, CcKind::kBbr, trial,
                                        &log);
      log.flush();
    }
    OracleConfig cfg;
    cfg.hydrate_paths = {sweep_log};
    cfg.no_compute = true;
    cfg.allow_model = false;
    PayoffOracle from_sweep{cfg};
    const OracleAnswer a = from_sweep.query(make_oq(2, 1, 1, trial));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.fidelity, OracleFidelity::kExact);
    expect_same_outcome(a.outcome, cold_snap[0].second);
  }
}

// --- interpolated tier ---------------------------------------------------

TEST(OracleInterpolation, MidpointIsConvexAndTracksTheSimulator) {
  TrialConfig trial = quick_trial();
  trial.duration = from_sec(8);
  trial.warmup = from_sec(2);

  OracleConfig cfg;
  cfg.max_band_deviation = 1e9;  // the band gate is tested separately
  PayoffOracle oracle{cfg};
  const OracleAnswer lo = oracle.query(make_oq(2, 1, 1, trial));
  const OracleAnswer hi = oracle.query(make_oq(4, 1, 1, trial));
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());

  const OracleQuery mid_q = make_oq(3, 1, 1, trial);
  const OracleAnswer mid = oracle.query(mid_q);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.fidelity, OracleFidelity::kInterpolated);
  // 3 BDP sits exactly halfway between 2 and 4: the blend is the exact
  // arithmetic midpoint of the corner cells, field for field.
  EXPECT_EQ(mid.outcome.per_flow_cubic_mbps,
            0.5 * lo.outcome.per_flow_cubic_mbps +
                0.5 * hi.outcome.per_flow_cubic_mbps);
  EXPECT_EQ(mid.outcome.per_flow_other_mbps,
            0.5 * lo.outcome.per_flow_other_mbps +
                0.5 * hi.outcome.per_flow_other_mbps);
  EXPECT_EQ(mid.outcome.link_utilization,
            0.5 * lo.outcome.link_utilization +
                0.5 * hi.outcome.link_utilization);
  // The blend is not an empirical measurement and must not claim trials.
  EXPECT_EQ(mid.outcome.trials_completed, 0);

  // Pinned tolerance vs actually simulating the midpoint cell: per-flow
  // throughputs within 35% of the link rate. The bound is deliberately
  // loose — it pins "the blend is about the dynamics", not statistics.
  const MixOutcome direct =
      run_mix_trials(mid_q.net, 1, 1, CcKind::kBbr, trial);
  EXPECT_NEAR(mid.outcome.per_flow_cubic_mbps, direct.per_flow_cubic_mbps,
              35.0);
  EXPECT_NEAR(mid.outcome.per_flow_other_mbps, direct.per_flow_other_mbps,
              35.0);
  EXPECT_EQ(oracle.stats().interpolated, 1u);
}

/// Synthetic lattice cell with every field a linear function of the
/// coordinates — multilinear interpolation must reproduce it exactly.
MixOutcome synth_outcome(int nc, int no, double buffer_mb) {
  MixOutcome m;
  m.per_flow_cubic_mbps = 100.0 + 3.0 * nc + 5.0 * no + 7.0 * buffer_mb;
  m.per_flow_other_mbps = 50.0 + 2.0 * nc + 1.0 * no + 3.0 * buffer_mb;
  m.total_cubic_mbps = 10.0 * nc + buffer_mb;
  m.total_other_mbps = 20.0 * no + buffer_mb;
  m.avg_queue_delay_ms = 1.0 + buffer_mb;
  m.link_utilization = 0.5 + 0.01 * nc;
  m.cubic_buffer_avg = 1000.0 * buffer_mb;
  m.cubic_buffer_min = 100.0 * buffer_mb;
  m.noncubic_buffer_avg = 500.0 * buffer_mb;
  m.trials_completed = 1;
  return m;
}

std::string write_synth_lattice(const std::string& name,
                                const std::vector<int>& ncs,
                                const std::vector<int>& nos,
                                const std::vector<double>& bdps,
                                const TrialConfig& trial) {
  const std::string path = temp_path(name);
  std::remove(path.c_str());
  CheckpointLog log{path};
  for (const int nc : ncs) {
    for (const int no : nos) {
      for (const double bdp : bdps) {
        const NetworkParams net = make_params(100, 40, bdp);
        const MixOutcome m =
            synth_outcome(nc, no, static_cast<double>(net.buffer_bytes) / 1e6);
        log.record(mix_checkpoint_key(net, nc, no, CcKind::kBbr, trial),
                   mix_to_record(m));
      }
    }
  }
  log.flush();
  return path;
}

TEST(OracleInterpolation, FuzzNeverExtrapolatesAndReproducesLinearFields) {
  const TrialConfig trial = quick_trial();
  const std::vector<int> ncs = {1, 2, 4};
  const std::vector<int> nos = {1, 2};
  const std::vector<double> bdps = {2, 4, 8};
  const std::string lattice =
      write_synth_lattice("oracle_synth.jsonl", ncs, nos, bdps, trial);

  OracleConfig cfg;
  cfg.hydrate_paths = {lattice};
  cfg.no_compute = true;
  cfg.allow_model = false;   // isolate the interpolation tier
  cfg.max_band_deviation = 1e9;
  PayoffOracle oracle{cfg};
  EXPECT_EQ(oracle.cache_size(), ncs.size() * nos.size() * bdps.size());

  std::mt19937_64 rng{42};  // seeded: failures reproduce exactly
  std::uniform_int_distribution<int> nc_d(0, 6), no_d(0, 3);
  std::uniform_real_distribution<double> bdp_d(0.5, 10.0);
  int interpolated = 0, pending = 0;
  for (int i = 0; i < 400; ++i) {
    const int nc = nc_d(rng);
    const int no = no_d(rng);
    const double bdp = bdp_d(rng);
    const OracleQuery q = make_oq(bdp, nc, no, trial);
    const OracleAnswer a = oracle.query(q);

    const bool inside = nc >= 1 && nc <= 4 && no >= 1 && no <= 2 &&
                        q.net.buffer_bytes >= make_params(100, 40, 2).buffer_bytes &&
                        q.net.buffer_bytes <= make_params(100, 40, 8).buffer_bytes;
    if (!inside) {
      // Outside the cached hull (or crossing the zero-flow boundary):
      // refusing is the contract; numbers would be extrapolation.
      if (a.status == OracleStatus::kOk &&
          a.fidelity == OracleFidelity::kExact) {
        continue;  // landed exactly on a lattice point
      }
      EXPECT_EQ(a.status, OracleStatus::kPending) << "nc=" << nc
                                                  << " no=" << no
                                                  << " bdp=" << bdp;
      ++pending;
      continue;
    }
    ASSERT_TRUE(a.ok());
    if (a.fidelity == OracleFidelity::kExact) continue;  // lattice point
    EXPECT_EQ(a.fidelity, OracleFidelity::kInterpolated);
    ++interpolated;

    // Multilinear interpolation of multilinear data is exact (mod fp
    // noise), and automatically inside the corner hull.
    const MixOutcome want = synth_outcome(
        nc, no, static_cast<double>(q.net.buffer_bytes) / 1e6);
    EXPECT_NEAR(a.outcome.per_flow_cubic_mbps, want.per_flow_cubic_mbps,
                1e-6 * want.per_flow_cubic_mbps);
    EXPECT_NEAR(a.outcome.per_flow_other_mbps, want.per_flow_other_mbps,
                1e-6 * want.per_flow_other_mbps);
    EXPECT_NEAR(a.outcome.link_utilization, want.link_utilization, 1e-9);
  }
  EXPECT_GT(interpolated, 50);
  EXPECT_GT(pending, 50);
  EXPECT_EQ(oracle.stats().interp_band_rejected, 0u);
}

TEST(OracleInterpolation, ZeroFlowBoundaryNeverBlends) {
  // Lattice holds nc = 0 and nc = 2 rows. A query at nc = 1 must NOT
  // average a no-CUBIC cell with a CUBIC one — per-flow throughput of an
  // absent class is a different regime, not a small number.
  const TrialConfig trial = quick_trial();
  const std::string lattice = write_synth_lattice(
      "oracle_zero.jsonl", {0, 2}, {1}, {2, 4}, trial);
  OracleConfig cfg;
  cfg.hydrate_paths = {lattice};
  cfg.no_compute = true;
  cfg.allow_model = false;
  PayoffOracle oracle{cfg};

  EXPECT_EQ(oracle.query(make_oq(3, 1, 1, trial)).status,
            OracleStatus::kPending);
  // Exactly on the zero row the axis collapses: that IS cached data.
  const OracleAnswer zero = oracle.query(make_oq(3, 0, 1, trial));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.fidelity, OracleFidelity::kInterpolated);
}

TEST(OracleInterpolation, FailedCellsArePoisonNotCorners) {
  // A cached cell whose every trial failed (trials_completed == 0) must
  // serve its failure on exact hit and never participate in a blend.
  const TrialConfig trial = quick_trial();
  const std::string path = temp_path("oracle_failed.jsonl");
  std::remove(path.c_str());
  {
    CheckpointLog log{path};
    const std::vector<double> cell_bdps = {2.0, 4.0};
    for (std::size_t i = 0; i < cell_bdps.size(); ++i) {
      const NetworkParams net = make_params(100, 40, cell_bdps[i]);
      MixOutcome m;
      if (i == 0) {
        m = synth_outcome(1, 1, static_cast<double>(net.buffer_bytes) / 1e6);
      } else {
        m.trials_failed = 1;
        m.failures = {"trial 0 (seed 1, 1 attempts): watchdog: wedged"};
      }
      log.record(mix_checkpoint_key(net, 1, 1, CcKind::kBbr, trial),
                 mix_to_record(m));
    }
    log.flush();
  }
  OracleConfig cfg;
  cfg.hydrate_paths = {path};
  cfg.no_compute = true;
  cfg.allow_model = false;
  PayoffOracle oracle{cfg};

  const OracleAnswer failed = oracle.query(make_oq(4, 1, 1, trial));
  EXPECT_EQ(failed.status, OracleStatus::kFailed);
  EXPECT_FALSE(failed.message.empty());
  // The midpoint needs the failed cell as its upper corner: refuse.
  EXPECT_EQ(oracle.query(make_oq(3, 1, 1, trial)).status,
            OracleStatus::kPending);
}

TEST(OracleInterpolation, CorruptedRecordsNeverBecomeAnswers) {
  const TrialConfig trial = quick_trial();
  const std::string clean = write_synth_lattice(
      "oracle_clean.jsonl", {1, 2}, {1}, {2, 4}, trial);
  const std::string dirty = temp_path("oracle_dirty.jsonl");
  std::remove(dirty.c_str());
  {
    std::ifstream in{clean};
    std::ofstream out{dirty, std::ios::trunc};
    out << in.rdbuf();
    // Garbage that must be ignored: a lease record, a key with a mangled
    // axis, a non-mix key, and a torn line.
    const NetworkParams net = make_params(100, 40, 2);
    const std::string key =
        mix_checkpoint_key(net, 1, 1, CcKind::kBbr, trial);
    JsonlRecord rec = mix_to_record(synth_outcome(9, 9, 999));
    rec.set("key", lease_key(key));
    out << rec.encode() << '\n';
    std::string mangled = key;
    mangled.replace(mangled.find("nc=1"), 4, "nc=1z");
    rec.set("key", mangled);
    out << rec.encode() << '\n';
    rec.set("key", "nash something");
    out << rec.encode() << '\n';
    out << "{\"key\": \"mix c=12500000 b=";  // torn
  }

  const auto run_queries = [&trial](const std::string& path) {
    OracleConfig cfg;
    cfg.hydrate_paths = {path};
    cfg.no_compute = true;
    cfg.allow_model = false;
    cfg.max_band_deviation = 1e9;
    PayoffOracle oracle{cfg};
    std::vector<OracleAnswer> out;
    std::mt19937_64 rng{7};
    std::uniform_real_distribution<double> bdp_d(1.0, 6.0);
    for (int i = 0; i < 100; ++i) {
      out.push_back(
          oracle.query(make_oq(bdp_d(rng), 1 + i % 3, 1, trial)));
    }
    return out;
  };
  const std::vector<OracleAnswer> want = run_queries(clean);
  const std::vector<OracleAnswer> got = run_queries(dirty);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].status, want[i].status);
    EXPECT_EQ(got[i].fidelity, want[i].fidelity);
    expect_same_outcome(got[i].outcome, want[i].outcome);
  }
}

// --- no_compute contract -------------------------------------------------

TEST(OracleNoCompute, NeverFabricatesNumbers) {
  OracleConfig cfg;
  cfg.no_compute = true;
  cfg.allow_model = false;
  PayoffOracle oracle{cfg};
  const MixOutcome zero;
  std::mt19937_64 rng{11};
  std::uniform_int_distribution<int> n_d(0, 8);
  std::uniform_real_distribution<double> bdp_d(0.2, 40.0);
  for (int i = 0; i < 200; ++i) {
    const OracleAnswer a =
        oracle.query(make_oq(bdp_d(rng), n_d(rng), n_d(rng), quick_trial()));
    EXPECT_EQ(a.status, OracleStatus::kPending);
    EXPECT_FALSE(a.message.empty());
    expect_same_outcome(a.outcome, zero);  // all zeros: nothing invented
  }
  EXPECT_EQ(oracle.stats().pending, 200u);
  EXPECT_EQ(oracle.cache_size(), 0u);
}

TEST(OracleNoCompute, ModelTierOnlyWhereTheModelApplies) {
  OracleConfig cfg;
  cfg.no_compute = true;
  PayoffOracle oracle{cfg};
  // Pristine BBR mix inside the validity domain: model-only answer.
  const OracleAnswer ok = oracle.query(make_oq(5, 2, 3, quick_trial()));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.fidelity, OracleFidelity::kModelOnly);
  // No CUBIC flows: the closed forms don't cover it — pending, not a guess.
  EXPECT_EQ(oracle.query(make_oq(5, 0, 3, quick_trial())).status,
            OracleStatus::kPending);
  // Impaired path: ditto.
  OracleQuery impaired = make_oq(5, 2, 3, quick_trial());
  impaired.trial.impairments.loss_rate = 0.01;
  EXPECT_EQ(oracle.query(impaired).status, OracleStatus::kPending);
  // Non-BBR challenger: ditto.
  OracleQuery copa = make_oq(5, 2, 3, quick_trial());
  copa.challenger = CcKind::kCopa;
  EXPECT_EQ(oracle.query(copa).status, OracleStatus::kPending);
}

// --- batch + concurrency -------------------------------------------------

TEST(OracleBatch, MatchesSingleQueriesInOrder) {
  const TrialConfig trial = quick_trial();
  const std::vector<int> ncs = {1, 2};
  const std::string lattice = write_synth_lattice(
      "oracle_batch.jsonl", ncs, {1}, {2, 4}, trial);

  const auto make_queries = [&trial] {
    std::vector<OracleQuery> qs;
    qs.push_back(make_oq(2, 1, 1, trial));  // exact hit
    qs.push_back(make_oq(3, 1, 1, trial));  // interpolated
    qs.push_back(make_oq(9, 1, 1, trial));  // outside hull -> model/pending
    qs.push_back(make_oq(2, 1, 1, trial));  // duplicate of [0]
    return qs;
  };

  OracleConfig cfg;
  cfg.hydrate_paths = {lattice};
  cfg.no_compute = true;
  cfg.max_band_deviation = 1e9;
  PayoffOracle batch_oracle{cfg};
  PayoffOracle single_oracle{cfg};

  const std::vector<OracleAnswer> batch =
      batch_oracle.query_batch(make_queries());
  ASSERT_EQ(batch.size(), 4u);
  const std::vector<OracleQuery> qs = make_queries();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const OracleAnswer want = single_oracle.query(qs[i]);
    EXPECT_EQ(batch[i].status, want.status) << i;
    EXPECT_EQ(batch[i].fidelity, want.fidelity) << i;
    EXPECT_EQ(batch[i].key, want.key) << i;
    expect_same_outcome(batch[i].outcome, want.outcome);
  }
}

TEST(OracleConcurrency, HammerSharedOracleAcrossThreads) {
  // Real computes racing on the same 4 cells from 8 threads: every thread
  // must see bit-identical answers (cells are pure functions of keys), the
  // memo must converge to exactly 4 entries, and tsan must stay silent.
  TrialConfig trial = quick_trial();
  trial.duration = from_sec(2);
  trial.warmup = from_sec(1) / 2;

  OracleConfig cfg;
  cfg.cache_path = temp_path("oracle_hammer.jsonl");
  std::remove(cfg.cache_path.c_str());
  cfg.allow_interpolation = false;  // force every miss through compute
  PayoffOracle oracle{cfg};

  const std::vector<double> bdps = {1, 2, 3, 4};
  std::vector<MixOutcome> reference(bdps.size());
  for (std::size_t c = 0; c < bdps.size(); ++c) {
    const OracleQuery q = make_oq(bdps[c], 1, 1, trial);
    reference[c] = run_mix_trials(q.net, 1, 1, CcKind::kBbr, trial);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t c = 0; c < bdps.size(); ++c) {
          // Stagger so different threads race different cells first.
          const std::size_t idx = (c + static_cast<std::size_t>(t)) %
                                  bdps.size();
          const OracleAnswer a =
              oracle.query(make_oq(bdps[idx], 1, 1, trial));
          if (!a.ok() || a.fidelity != OracleFidelity::kExact ||
              a.outcome.per_flow_cubic_mbps !=
                  reference[idx].per_flow_cubic_mbps ||
              a.outcome.per_flow_other_mbps !=
                  reference[idx].per_flow_other_mbps) {
            ++mismatches[t];
          }
        }
        (void)oracle.cache_size();
        (void)oracle.stats();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(oracle.cache_size(), bdps.size());
  oracle.flush();
  // Whatever the race schedule, the persisted cache replays to the same
  // memo (duplicate appends are last-write-wins of identical bits).
  OracleConfig replay_cfg;
  replay_cfg.hydrate_paths = {cfg.cache_path};
  replay_cfg.no_compute = true;
  replay_cfg.allow_model = false;
  PayoffOracle replay{replay_cfg};
  expect_same_snapshot(replay.snapshot(), oracle.snapshot());
}

}  // namespace
}  // namespace bbrnash
