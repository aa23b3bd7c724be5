#include "exp/oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "exp/cli_flags.hpp"
#include "model/mishra_model.hpp"
#include "model/model_band.hpp"
#include "util/jsonl.hpp"
#include "util/schemas.hpp"

namespace bbrnash {

const char* to_string(OracleFidelity f) {
  switch (f) {
    case OracleFidelity::kExact: return "exact";
    case OracleFidelity::kInterpolated: return "interpolated";
    case OracleFidelity::kModelOnly: return "model-only";
  }
  return "?";
}

const char* to_string(OracleStatus s) {
  switch (s) {
    case OracleStatus::kOk: return "ok";
    case OracleStatus::kPending: return "pending";
    case OracleStatus::kFailed: return "failed";
  }
  return "?";
}

std::string oracle_key(const OracleQuery& q) {
  return mix_checkpoint_key(q.net, q.num_cubic, q.num_other, q.challenger,
                            q.trial);
}

std::optional<MixKeyAxes> parse_mix_key_axes(const std::string& key) {
  if (key.rfind("mix ", 0) != 0 || is_lease_key(key)) return std::nullopt;
  MixKeyAxes axes;
  axes.base.reserve(key.size());
  axes.base = "mix";
  bool have_b = false;
  bool have_nc = false;
  bool have_no = false;
  std::size_t pos = 4;  // past "mix "
  while (pos < key.size()) {
    std::size_t end = key.find(' ', pos);
    if (end == std::string::npos) end = key.size();
    const std::string token = key.substr(pos, end - pos);
    pos = end + 1;
    const auto grab = [&token](const char* prefix) -> std::optional<std::string> {
      const std::size_t n = std::string_view{prefix}.size();
      if (token.rfind(prefix, 0) != 0) return std::nullopt;
      return token.substr(n);
    };
    try {
      if (const auto v = grab("b=")) {
        const std::uint64_t raw = parse_u64_strict("key b", *v);
        if (raw > static_cast<std::uint64_t>(
                      std::numeric_limits<Bytes>::max())) {
          return std::nullopt;
        }
        axes.buffer = static_cast<Bytes>(raw);
        have_b = true;
        continue;
      }
      if (const auto v = grab("nc=")) {
        axes.num_cubic = parse_int_strict("key nc", *v);
        have_nc = true;
        continue;
      }
      if (const auto v = grab("no=")) {
        axes.num_other = parse_int_strict("key no", *v);
        have_no = true;
        continue;
      }
    } catch (const std::invalid_argument&) {
      // A corrupt axis field (e.g. "nc=3x") disqualifies the record from
      // the lattice — the oracle must never interpolate from garbage.
      return std::nullopt;
    }
    axes.base += ' ';
    axes.base += token;
  }
  if (!have_b || !have_nc || !have_no) return std::nullopt;
  return axes;
}

std::optional<MixOutcome> model_only_outcome(const NetworkParams& net,
                                             int num_cubic, int num_bbr) {
  if (num_cubic < 1 || num_bbr < 1) return std::nullopt;
  const auto iv = prediction_interval(net, num_cubic, num_bbr);
  if (!iv) return std::nullopt;
  const auto mid = [](double a, double b) { return 0.5 * (a + b); };
  const MishraPrediction& s = iv->sync.aggregate;
  const MishraPrediction& d = iv->desync.aggregate;
  MixOutcome m;
  m.per_flow_cubic_mbps =
      to_mbps(mid(iv->sync.per_flow_cubic, iv->desync.per_flow_cubic));
  m.per_flow_other_mbps =
      to_mbps(mid(iv->sync.per_flow_bbr, iv->desync.per_flow_bbr));
  m.total_cubic_mbps = to_mbps(mid(s.lambda_cubic, d.lambda_cubic));
  m.total_other_mbps = to_mbps(mid(s.lambda_bbr, d.lambda_bbr));
  m.link_utilization = (mid(s.lambda_cubic, d.lambda_cubic) +
                        mid(s.lambda_bbr, d.lambda_bbr)) /
                       net.capacity;
  // The model's buffer-always-full assumption pins the standing queue.
  m.avg_queue_delay_ms =
      1e3 * static_cast<double>(net.buffer_bytes) / net.capacity;
  const auto buffer = static_cast<double>(net.buffer_bytes);
  m.cubic_buffer_avg =
      mid(buffer - s.bbr_buffer_bytes, buffer - d.bbr_buffer_bytes);
  m.cubic_buffer_min = mid(s.cubic_min_buffer, d.cubic_min_buffer);
  m.noncubic_buffer_avg = mid(s.bbr_buffer_bytes, d.bbr_buffer_bytes);
  // trials_* stay 0: no simulation ran, and the differential suite relies
  // on the 0/0 signature to tell a model answer from an empirical one.
  return m;
}

namespace {

/// True when the closed forms describe this cell: a BBR challenger on a
/// pristine constant-rate path (the model's assumptions).
bool model_applies(const OracleQuery& q) {
  return q.challenger == CcKind::kBbr && q.num_cubic >= 1 &&
         q.num_other >= 1 && !q.trial.impairments.any() &&
         !q.trial.ack_impairments.any() && q.trial.capacity_schedule.empty();
}

JsonlRecord oracle_record(const MixOutcome& m) {
  JsonlRecord rec = mix_to_record(m);
  rec.set("schema", kSchemaOracle);
  return rec;
}

/// The key with its nc=/no= fields elided: misses sharing a compute group
/// differ only in the mix, which is exactly what one run_fabric_cells call
/// sweeps.
std::string compute_group_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  std::size_t pos = 0;
  while (pos < key.size()) {
    std::size_t end = key.find(' ', pos);
    if (end == std::string::npos) end = key.size();
    const std::string_view token{key.data() + pos, end - pos};
    if (token.rfind("nc=", 0) != 0 && token.rfind("no=", 0) != 0) {
      if (!out.empty()) out += ' ';
      out += token;
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace

PayoffOracle::PayoffOracle(OracleConfig cfg) : cfg_(std::move(cfg)) {
  // Hydrate side files first, the oracle's own cache last: on a key served
  // by both, the entry this oracle wrote previously is authoritative.
  for (const std::string& path : cfg_.hydrate_paths) {
    hydrate_file(path, /*warn_on_skip=*/true);
  }
  if (!cfg_.cache_path.empty()) {
    hydrate_file(cfg_.cache_path, /*warn_on_skip=*/false);
    // CheckpointLog replays the file again (cheap) and warns about torn
    // lines itself; it owns all appends from here on.
    log_ = std::make_unique<CheckpointLog>(cfg_.cache_path);
  }
}

void PayoffOracle::hydrate_file(const std::string& path, bool warn_on_skip) {
  std::size_t skipped = 0;
  const std::vector<JsonlRecord> records = read_jsonl(path, &skipped);
  std::uint64_t loaded = 0;
  for (const JsonlRecord& rec : records) {
    const std::string key = rec.get_string("key");
    // Lease bookkeeping and foreign records never become answers.
    if (key.rfind("mix", 0) != 0 || is_lease_key(key)) continue;
    insert_locked(key, mix_from_record(rec));
    ++loaded;
  }
  stats_.hydrated_cells += loaded;
  stats_.hydrate_skipped_lines += skipped;
  if (warn_on_skip && skipped > 0) {
    std::fprintf(stderr,
                 "oracle: skipped %zu unparseable line(s) hydrating %s\n",
                 skipped, path.c_str());
  }
}

void PayoffOracle::insert_locked(const std::string& key, const MixOutcome& m) {
  memo_[key] = m;
  const auto axes = parse_mix_key_axes(key);
  if (!axes) return;  // exact-hit only; no lattice point from odd keys
  std::vector<LatticePoint>& group = lattice_[axes->base];
  for (LatticePoint& p : group) {
    if (p.buffer == axes->buffer && p.num_cubic == axes->num_cubic &&
        p.num_other == axes->num_other) {
      p.key = key;  // refreshed entry (last-write-wins, like the memo)
      return;
    }
  }
  group.push_back(
      LatticePoint{axes->buffer, axes->num_cubic, axes->num_other, key});
}

std::optional<MixOutcome> PayoffOracle::try_interpolate_locked(
    const OracleQuery& q, const MixKeyAxes& axes) {
  const auto git = lattice_.find(axes.base);
  if (git == lattice_.end()) return std::nullopt;
  const std::vector<LatticePoint>& group = git->second;

  // Nearest lattice neighbours per axis. A zero flow count is a different
  // regime, not a small value: per-flow throughput of an absent class is
  // identically 0, so blending an N=0 corner into an N>0 query would
  // fabricate numbers. N>0 queries only accept N>=1 corners; N==0 queries
  // require the axis to collapse at exactly 0.
  struct Axis {
    double lo = 0.0, hi = 0.0;
    bool found_lo = false, found_hi = false;
  };
  Axis ax[3];
  const double qv[3] = {static_cast<double>(q.net.buffer_bytes),
                        static_cast<double>(q.num_cubic),
                        static_cast<double>(q.num_other)};
  for (const LatticePoint& p : group) {
    if ((q.num_cubic == 0) != (p.num_cubic == 0)) continue;
    if ((q.num_other == 0) != (p.num_other == 0)) continue;
    const double pv[3] = {static_cast<double>(p.buffer),
                          static_cast<double>(p.num_cubic),
                          static_cast<double>(p.num_other)};
    for (int a = 0; a < 3; ++a) {
      if (pv[a] <= qv[a] && (!ax[a].found_lo || pv[a] > ax[a].lo)) {
        ax[a].lo = pv[a];
        ax[a].found_lo = true;
      }
      if (pv[a] >= qv[a] && (!ax[a].found_hi || pv[a] < ax[a].hi)) {
        ax[a].hi = pv[a];
        ax[a].found_hi = true;
      }
    }
  }
  for (const Axis& a : ax) {
    // Bounded: a missing side means the query sits outside the cached
    // hull on that axis — refuse rather than extrapolate.
    if (!a.found_lo || !a.found_hi) return std::nullopt;
  }

  // Collect the corner cells of the bounding box. Collapsed axes (lo ==
  // hi) contribute one coordinate; the corner count is 2^(free axes).
  const auto corner_at = [&](double b, double c,
                             double o) -> const MixOutcome* {
    for (const LatticePoint& p : group) {
      if (static_cast<double>(p.buffer) == b &&
          static_cast<double>(p.num_cubic) == c &&
          static_cast<double>(p.num_other) == o) {
        const auto mit = memo_.find(p.key);
        return mit == memo_.end() ? nullptr : &mit->second;
      }
    }
    return nullptr;
  };

  MixOutcome blend;
  double weight_sum = 0.0;
  for (int mask = 0; mask < 8; ++mask) {
    double coord[3];
    double w = 1.0;
    bool dup = false;
    for (int a = 0; a < 3; ++a) {
      const bool high = (mask & (1 << a)) != 0;
      if (ax[a].lo == ax[a].hi) {
        if (high) dup = true;  // collapsed axis: count the corner once
        coord[a] = ax[a].lo;
        continue;
      }
      const double t = (qv[a] - ax[a].lo) / (ax[a].hi - ax[a].lo);
      coord[a] = high ? ax[a].hi : ax[a].lo;
      w *= high ? t : (1.0 - t);
    }
    if (dup) continue;
    const MixOutcome* cell = corner_at(coord[0], coord[1], coord[2]);
    // Every corner must exist and carry real data; a failed cell (zero
    // completed trials) has nothing to contribute.
    if (cell == nullptr || cell->trials_completed == 0) return std::nullopt;
    blend.per_flow_cubic_mbps += w * cell->per_flow_cubic_mbps;
    blend.per_flow_other_mbps += w * cell->per_flow_other_mbps;
    blend.total_cubic_mbps += w * cell->total_cubic_mbps;
    blend.total_other_mbps += w * cell->total_other_mbps;
    blend.avg_queue_delay_ms += w * cell->avg_queue_delay_ms;
    blend.link_utilization += w * cell->link_utilization;
    blend.cubic_buffer_avg += w * cell->cubic_buffer_avg;
    blend.cubic_buffer_min += w * cell->cubic_buffer_min;
    blend.noncubic_buffer_avg += w * cell->noncubic_buffer_avg;
    weight_sum += w;
  }
  // Weights of a multilinear blend sum to 1 by construction; anything else
  // means a corner was skipped above.
  if (weight_sum <= 0.0) return std::nullopt;
  // trials_* stay 0: the blend is not an empirical measurement.
  return blend;
}

OracleAnswer PayoffOracle::answer_miss(const OracleQuery& q,
                                       const std::string& key) {
  if (cfg_.no_compute) return answer_without_compute(q, key);

  // Tier 3: genuinely compute the cell, then memoize + persist. The
  // numbers are a pure function of the key, so a racing thread computing
  // the same cell writes the same bits.
  OracleAnswer ans;
  ans.key = key;
  MixOutcome m;
  if (cfg_.fabric_workers >= 1) {
    FabricConfig fab = cfg_.fabric;
    fab.workers = cfg_.fabric_workers;
    if (fab.checkpoint_path.empty() && !cfg_.cache_path.empty()) {
      fab.checkpoint_path = cfg_.cache_path + ".fabric.jsonl";
    }
    const FabricOutcome out = run_fabric_cells(
        q.net, {FabricCell{q.num_cubic, q.num_other}}, q.challenger, q.trial,
        fab);
    if (out.cells.size() != 1 || !out.cells[0].has_value()) {
      ans.status = OracleStatus::kFailed;
      ans.message = out.message.empty() ? "fabric returned no measurement"
                                        : out.message;
      const std::lock_guard<std::mutex> lk{mu_};
      ++stats_.failed;
      return ans;
    }
    m = *out.cells[0];
  } else {
    m = run_mix_trials(q.net, q.num_cubic, q.num_other, q.challenger,
                       q.trial);
  }

  if (log_) log_->record(key, oracle_record(m));
  {
    const std::lock_guard<std::mutex> lk{mu_};
    insert_locked(key, m);
    ++stats_.computed;
    if (m.trials_completed == 0) ++stats_.failed;
  }
  ans.outcome = m;
  ans.fidelity = OracleFidelity::kExact;
  if (m.trials_completed == 0) {
    // Every trial failed: diagnostics, not numbers. The record is still
    // persisted (so a resumed oracle reports the same failure instantly).
    ans.status = OracleStatus::kFailed;
    ans.message = m.failures.empty() ? "no completed trials"
                                     : m.failures.front();
  } else {
    ans.status = OracleStatus::kOk;
  }
  return ans;
}

OracleAnswer PayoffOracle::answer_without_compute(const OracleQuery& q,
                                                  const std::string& key) {
  OracleAnswer ans;
  ans.key = key;
  if (cfg_.allow_model && model_applies(q)) {
    const auto m = model_only_outcome(q.net, q.num_cubic, q.num_other);
    if (m) {
      ans.status = OracleStatus::kOk;
      ans.fidelity = OracleFidelity::kModelOnly;
      ans.outcome = *m;
      ans.band_deviation = 0.0;  // the answer IS the model midpoint
      const std::lock_guard<std::mutex> lk{mu_};
      ++stats_.model_only;
      return ans;
    }
  }
  ans.status = OracleStatus::kPending;
  ans.message =
      "cell not cached and --no-compute forbids scheduling it; drop "
      "--no-compute (or run `bbrnash sweep`) to materialize the cell";
  const std::lock_guard<std::mutex> lk{mu_};
  ++stats_.pending;
  return ans;
}

std::optional<OracleAnswer> PayoffOracle::cached_tiers_locked(
    const OracleQuery& q, const std::string& key) {
  // Tier 1: exact memo hit.
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++stats_.exact_hits;
    OracleAnswer ans;
    ans.key = key;
    ans.fidelity = OracleFidelity::kExact;
    ans.outcome = it->second;
    if (it->second.trials_completed == 0 && it->second.trials_failed > 0) {
      ans.status = OracleStatus::kFailed;
      ans.message = it->second.failures.empty()
                        ? "cached cell has no completed trials"
                        : it->second.failures.front();
    } else {
      ans.status = OracleStatus::kOk;
    }
    return ans;
  }

  // Tier 2: bounded multilinear interpolation + closed-form cross-check.
  if (cfg_.allow_interpolation) {
    const auto axes = parse_mix_key_axes(key);
    if (axes) {
      const auto blend = try_interpolate_locked(q, *axes);
      if (!blend) {
        ++stats_.interp_no_bounds;
      } else {
        OracleAnswer ans;
        ans.key = key;
        ans.fidelity = OracleFidelity::kInterpolated;
        ans.outcome = *blend;
        ans.status = OracleStatus::kOk;
        bool reject = false;
        if (model_applies(q)) {
          const auto band = model_band(q.net, q.num_cubic, q.num_other,
                                       to_sec(q.trial.duration));
          if (band) {
            ans.band_deviation =
                band_deviation(*band, mbps(blend->per_flow_cubic_mbps),
                               mbps(blend->per_flow_other_mbps));
            reject = ans.band_deviation > cfg_.max_band_deviation;
          }
        }
        if (!reject) {
          ++stats_.interpolated;
          return ans;
        }
        ++stats_.interp_band_rejected;
      }
    }
  }
  return std::nullopt;
}

OracleAnswer PayoffOracle::query(const OracleQuery& q) {
  const std::string key = oracle_key(q);
  {
    const std::lock_guard<std::mutex> lk{mu_};
    ++stats_.queries;
    const auto cached = cached_tiers_locked(q, key);
    if (cached) return *cached;
  }
  // Tier 3 (outside the lock: it may run the simulator for a while).
  return answer_miss(q, key);
}

std::vector<OracleAnswer> PayoffOracle::query_batch(
    const std::vector<OracleQuery>& qs) {
  std::vector<OracleAnswer> answers(qs.size());
  // Pass 1: everything the cache/model can answer, plus the miss list.
  struct Miss {
    std::size_t idx = 0;
    std::string key;
    std::string group;
  };
  std::vector<Miss> misses;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const std::string key = oracle_key(qs[i]);
    bool miss = false;
    {
      const std::lock_guard<std::mutex> lk{mu_};
      miss = memo_.find(key) == memo_.end();
    }
    if (!miss || cfg_.no_compute || cfg_.fabric_workers < 1) {
      // Cheap tiers — or a compute mode where per-cell calls lose nothing.
      answers[i] = query(qs[i]);
      continue;
    }
    // Re-check the cheap tiers through query()'s logic is wasteful here;
    // interpolation may still answer without compute. Probe it by
    // temporarily treating this as a single query with compute deferred.
    misses.push_back(Miss{i, key, compute_group_key(key)});
  }

  // Pass 2: fabric mode — one run per compute group, cells deduplicated.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t m = 0; m < misses.size(); ++m) {
    groups[misses[m].group].push_back(m);
  }
  for (const auto& [group_key, members] : groups) {
    (void)group_key;
    // Interpolation might still answer some members without a fabric trip.
    std::vector<std::size_t> need;
    for (const std::size_t m : members) {
      const OracleQuery& q = qs[misses[m].idx];
      bool answered = false;
      {
        const std::lock_guard<std::mutex> lk{mu_};
        if (cfg_.allow_interpolation) {
          const auto axes = parse_mix_key_axes(misses[m].key);
          if (axes) {
            const auto blend = try_interpolate_locked(q, *axes);
            if (blend) {
              OracleAnswer ans;
              ans.key = misses[m].key;
              ans.fidelity = OracleFidelity::kInterpolated;
              ans.outcome = *blend;
              ans.status = OracleStatus::kOk;
              bool reject = false;
              if (model_applies(q)) {
                const auto band =
                    model_band(q.net, q.num_cubic, q.num_other,
                               to_sec(q.trial.duration));
                if (band) {
                  ans.band_deviation = band_deviation(
                      *band, mbps(blend->per_flow_cubic_mbps),
                      mbps(blend->per_flow_other_mbps));
                  reject = ans.band_deviation > cfg_.max_band_deviation;
                }
              }
              if (!reject) {
                ++stats_.queries;
                ++stats_.interpolated;
                answers[misses[m].idx] = ans;
                answered = true;
              } else {
                ++stats_.interp_band_rejected;
              }
            } else {
              ++stats_.interp_no_bounds;
            }
          }
        }
      }
      if (!answered) need.push_back(m);
    }
    if (need.empty()) continue;

    // One fabric run for the whole group: same net/challenger/trial by
    // construction of the group key, cells differ only in the mix.
    const OracleQuery& q0 = qs[misses[need.front()].idx];
    std::vector<FabricCell> cells;
    std::vector<std::vector<std::size_t>> cell_members;  // dedup by mix
    for (const std::size_t m : need) {
      const OracleQuery& q = qs[misses[m].idx];
      bool found = false;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].num_cubic == q.num_cubic &&
            cells[c].num_other == q.num_other) {
          cell_members[c].push_back(m);
          found = true;
          break;
        }
      }
      if (!found) {
        cells.push_back(FabricCell{q.num_cubic, q.num_other});
        cell_members.push_back({m});
      }
    }
    FabricConfig fab = cfg_.fabric;
    fab.workers = cfg_.fabric_workers;
    if (fab.checkpoint_path.empty() && !cfg_.cache_path.empty()) {
      fab.checkpoint_path = cfg_.cache_path + ".fabric.jsonl";
    }
    const FabricOutcome out =
        run_fabric_cells(q0.net, cells, q0.challenger, q0.trial, fab);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const bool have = c < out.cells.size() && out.cells[c].has_value();
      if (have) {
        // Record/insert once per cell (members of a cell share one key),
        // and `computed` counts cells actually run — a deduplicated
        // duplicate query must not inflate it.
        const MixOutcome& mo = *out.cells[c];
        const std::string& cell_key = misses[cell_members[c].front()].key;
        if (log_) log_->record(cell_key, oracle_record(mo));
        const std::lock_guard<std::mutex> lk{mu_};
        insert_locked(cell_key, mo);
        ++stats_.computed;
      }
      for (const std::size_t m : cell_members[c]) {
        const std::size_t idx = misses[m].idx;
        OracleAnswer& ans = answers[idx];
        ans.key = misses[m].key;
        const std::lock_guard<std::mutex> lk{mu_};
        ++stats_.queries;
        if (have) {
          const MixOutcome& mo = *out.cells[c];
          ans.outcome = mo;
          ans.fidelity = OracleFidelity::kExact;
          if (mo.trials_completed == 0) {
            ans.status = OracleStatus::kFailed;
            ans.message = mo.failures.empty() ? "no completed trials"
                                              : mo.failures.front();
            ++stats_.failed;
          } else {
            ans.status = OracleStatus::kOk;
          }
        } else {
          ans.status = OracleStatus::kFailed;
          ans.message = out.message.empty() ? "fabric returned no measurement"
                                            : out.message;
          ++stats_.failed;
        }
      }
    }
  }
  return answers;
}

std::vector<std::pair<std::string, MixOutcome>> PayoffOracle::snapshot()
    const {
  const std::lock_guard<std::mutex> lk{mu_};
  std::vector<std::pair<std::string, MixOutcome>> out;
  out.reserve(memo_.size());
  for (const auto& [key, m] : memo_) out.emplace_back(key, m);
  return out;  // std::map iterates sorted by key
}

std::size_t PayoffOracle::cache_size() const {
  const std::lock_guard<std::mutex> lk{mu_};
  return memo_.size();
}

OracleStats PayoffOracle::stats() const {
  const std::lock_guard<std::mutex> lk{mu_};
  return stats_;
}

void PayoffOracle::flush() {
  if (log_) log_->flush();
}

}  // namespace bbrnash
