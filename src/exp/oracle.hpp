// Payoff-oracle query service: the memoized + interpolated cache front end
// over the sweep machinery.
//
// The paper's central question — "what throughput share does the
// (N_cubic, N_other) mix get at (C, B, RTT, impairment)?" — is a query
// millions of clients could issue, not a batch job. The oracle answers it
// through a three-tier path, cheapest first:
//
//   1. exact        the canonical cell key (mix_checkpoint_key — the SAME
//                   key the sweeps, fabric and checkpoints use) hits the
//                   in-memory memo, hydrated at construction from the
//                   oracle's own append-only log plus any completed
//                   checkpoint/fabric JSONL files. Bit-identical to
//                   running run_mix_trials for that cell.
//   2. interpolated bounded multilinear interpolation over the cached
//                   neighbours on the (N_c, N_other, buffer) lattice —
//                   every other knob must match exactly (it is part of the
//                   lattice's base key). Never extrapolates: each axis
//                   needs a cached cell at or on both sides of the query,
//                   and the blend is a convex combination of the corner
//                   cells. Cross-checked against the closed forms
//                   (model/model_band.hpp); a blend outside the model
//                   envelope by more than `max_band_deviation` is rejected
//                   and the query falls through to tier 3.
//   2b. model-only  when nothing useful is cached but the Mishra/Ware
//                   closed forms apply (challenger BBR, pristine path,
//                   B >= 1 BDP), answer from the model midpoint in O(µs).
//   3. compute      genuine miss: run the cell — in-process by default,
//                   or scheduled on the multi-process fabric
//                   (run_fabric_cells) when `fabric_workers >= 1`. Under
//                   `no_compute` the oracle returns kPending instead and
//                   NEVER fabricates a number.
//
// Every computed answer is recorded to the `bbrnash-oracle-v1` append-only
// JSONL cache through CheckpointLog, so the cache inherits the same
// crash-safety story as everything else: torn trailing lines are skipped
// on reload, a killed-and-restarted oracle re-serves exactly the entries
// that reached the disk, and re-recording a key is harmless
// (last-write-wins). Cache entries never go stale by time: a cell's value
// is a pure function of its key (per-trial seeds included), so an entry
// can only be invalidated by changing the simulator itself — which is a
// schema bump, not an expiry rule.
//
// PayoffOracle is thread-safe: any number of threads may query one
// instance concurrently (the tsan-labelled hammer in
// tests/exp/test_oracle.cpp). The memo map is guarded by one mutex; disk
// appends go through CheckpointLog's single writer thread. Two threads
// that race to compute the same missing cell both run it and record the
// same bits — wasteful but correct, and impossible once either answer
// lands in the memo.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "exp/checkpoint.hpp"
#include "exp/fabric.hpp"
#include "exp/sweeps.hpp"
#include "model/network_params.hpp"

namespace bbrnash {

/// Provenance of an answer's numbers (reported with every answer).
enum class OracleFidelity {
  kExact,         ///< memoized empirical cell (or computed this call)
  kInterpolated,  ///< convex blend of cached neighbour cells
  kModelOnly,     ///< closed-form midpoint, no empirical data touched
};

enum class OracleStatus {
  kOk,       ///< `outcome` holds the answer
  kPending,  ///< miss under no_compute: cell scheduled-to-be-computed,
             ///< NO numbers are reported
  kFailed,   ///< the compute path ran and failed (diagnostics in message)
};

[[nodiscard]] const char* to_string(OracleFidelity f);
[[nodiscard]] const char* to_string(OracleStatus s);

/// One oracle query: the full cell coordinates. Everything in here is part
/// of the canonical key — two queries differing in any knob are different
/// cells.
struct OracleQuery {
  NetworkParams net;
  int num_cubic = 1;
  int num_other = 1;
  CcKind challenger = CcKind::kBbr;
  TrialConfig trial;
};

/// Canonical cell key for a query — mix_checkpoint_key verbatim, so oracle
/// cache entries, sweep checkpoints and fabric commits all share one key
/// space (and one %.17g float canonicalization).
[[nodiscard]] std::string oracle_key(const OracleQuery& q);

/// The (buffer, N_c, N_other) lattice coordinates of a mix cell key plus
/// the base key (the key with those three fields elided — everything that
/// must match EXACTLY for two cells to be interpolation neighbours).
/// nullopt for lease records, corrupt keys, or anything that is not a mix
/// cell key; the oracle never builds lattice entries from such records.
struct MixKeyAxes {
  Bytes buffer = 0;
  int num_cubic = 0;
  int num_other = 0;
  std::string base;
};
[[nodiscard]] std::optional<MixKeyAxes> parse_mix_key_axes(
    const std::string& key);

struct [[nodiscard]] OracleAnswer {
  OracleStatus status = OracleStatus::kFailed;
  OracleFidelity fidelity = OracleFidelity::kExact;
  MixOutcome outcome;       ///< valid only when status == kOk
  std::string key;          ///< canonical cell key of the query
  /// Closed-form cross-check: distance of the answer outside the
  /// Mishra/Ware envelope (0 = inside), or -1 when the models do not apply
  /// to this cell (non-BBR challenger, impaired path, B < 1 BDP).
  double band_deviation = -1.0;
  std::string message;      ///< non-empty for kPending/kFailed

  [[nodiscard]] bool ok() const noexcept {
    return status == OracleStatus::kOk;
  }
};

struct OracleConfig {
  /// The oracle's own append-only `bbrnash-oracle-v1` cache. Empty = pure
  /// in-memory cache (still correct, nothing survives the process).
  std::string cache_path;
  /// Additional completed checkpoint/fabric logs to hydrate from (read
  /// only; lease records and torn lines are skipped).
  std::vector<std::string> hydrate_paths;
  bool allow_interpolation = true;
  bool allow_model = true;
  /// Refuse to run the simulator: a genuine miss answers kPending.
  bool no_compute = false;
  /// Reject an interpolated blend whose per-flow throughputs land further
  /// than this outside the closed-form envelope (fraction of the model
  /// midpoint). Only applied where the models are valid.
  double max_band_deviation = 0.75;
  /// Tier-3 compute: 0 = in-process run_mix_trials on the calling thread;
  /// >= 1 = schedule on the multi-process fabric with this many workers.
  int fabric_workers = 0;
  /// Fabric knobs for fabric_workers >= 1 (workers is overridden). When
  /// fabric.checkpoint_path is empty the fabric coordinates through
  /// "<cache_path>.fabric.jsonl" so a killed compute resumes too.
  FabricConfig fabric;
};

/// Monotone counters; snapshot via PayoffOracle::stats().
struct OracleStats {
  std::uint64_t queries = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t interpolated = 0;
  std::uint64_t model_only = 0;
  std::uint64_t computed = 0;          ///< tier-3 cells run this process
  std::uint64_t pending = 0;
  std::uint64_t failed = 0;
  std::uint64_t interp_no_bounds = 0;  ///< would have extrapolated
  std::uint64_t interp_band_rejected = 0;  ///< blend outside model envelope
  std::uint64_t hydrated_cells = 0;    ///< memo entries loaded at startup
  std::uint64_t hydrate_skipped_lines = 0;  ///< torn/corrupt lines skipped
};

class PayoffOracle {
 public:
  explicit PayoffOracle(OracleConfig cfg);

  /// Answers one query through the tier chain. Thread-safe.
  [[nodiscard]] OracleAnswer query(const OracleQuery& q);

  /// Answers a batch. Cheap tiers answer inline; the misses are grouped by
  /// shared (net, challenger, trial) and — with fabric_workers >= 1 — each
  /// group is scheduled as ONE fabric run, so a thousand-cell batch pays
  /// the fork/lease overhead once per group instead of once per cell.
  /// Answers come back in input order.
  [[nodiscard]] std::vector<OracleAnswer> query_batch(
      const std::vector<OracleQuery>& qs);

  /// Entry-for-entry snapshot of the memo (sorted by key) — lets tests
  /// assert cold-start vs hydrated vs resumed caches agree exactly.
  [[nodiscard]] std::vector<std::pair<std::string, MixOutcome>> snapshot()
      const;

  [[nodiscard]] std::size_t cache_size() const;
  [[nodiscard]] OracleStats stats() const;
  /// Blocks until every computed cell accepted so far is on disk.
  void flush();

 private:
  struct LatticePoint {
    Bytes buffer = 0;
    int num_cubic = 0;
    int num_other = 0;
    std::string key;
  };

  void insert_locked(const std::string& key, const MixOutcome& m);
  void hydrate_file(const std::string& path, bool warn_on_skip);
  /// Tiers 1 + 2 under mu_; nullopt = miss (no counters touched beyond the
  /// per-tier hit/reject ones).
  [[nodiscard]] std::optional<OracleAnswer> cached_tiers_locked(
      const OracleQuery& q, const std::string& key);
  [[nodiscard]] std::optional<MixOutcome> try_interpolate_locked(
      const OracleQuery& q, const MixKeyAxes& axes);
  [[nodiscard]] OracleAnswer answer_miss(const OracleQuery& q,
                                         const std::string& key);
  /// A miss under no_compute: the closed-form model-only tier when it
  /// applies, else kPending — numbers are never fabricated.
  [[nodiscard]] OracleAnswer answer_without_compute(const OracleQuery& q,
                                                    const std::string& key);

  OracleConfig cfg_;
  std::unique_ptr<CheckpointLog> log_;  ///< null when cache_path is empty
  mutable std::mutex mu_;               ///< guards memo_, lattice_, stats_
  std::map<std::string, MixOutcome> memo_;
  std::map<std::string, std::vector<LatticePoint>> lattice_;
  OracleStats stats_;
};

/// The closed-form (tier 2b) answer: Mishra sync/desync midpoint per-flow
/// and aggregate rates, buffer occupancies from the same solution, queue
/// delay from the model's full-buffer assumption. nullopt outside the
/// validity domain. Exposed so the differential suite can pin the exact
/// arithmetic the oracle serves.
[[nodiscard]] std::optional<MixOutcome> model_only_outcome(
    const NetworkParams& net, int num_cubic, int num_bbr);

}  // namespace bbrnash
