// Deterministic chaos injection: a seeded fault schedule for the
// orchestration layer's recovery paths.
//
// PR 1 added watchdogs, seed-bump retries, and crash-safe checkpoints;
// nothing proved they work. The injector provokes exactly the failures
// those mechanisms claim to survive — forced trial exceptions, event- and
// wall-clock stalls that must trip the watchdogs, checkpoint write
// failures, torn trailing JSONL records, transient NE payoff-cell
// failures — at sites chosen purely by hashing (seed, fault class, site
// name). Two properties make the faults testable:
//
//   * Deterministic: whether a site fires depends only on the chaos seed
//     and the site's stable name, never on thread interleaving or wall
//     time, so a chaos run is reproducible under any --jobs.
//   * Fire-once: each (class, site) pair fires at most once per injector,
//     so every recovery loop that retries the same work is guaranteed to
//     converge — tests assert the recovered results are bit-identical to
//     a fault-free run at the same experiment seeds.
//
// Chaos faults are *environmental*: recovery must not consume retry
// attempts, bump seeds, or otherwise perturb the experiment's own
// randomness, or bit-identity is lost.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace bbrnash {

enum class ChaosClass : std::uint8_t {
  kTrialException,      ///< throw ChaosFault from inside execute_scenario
  kEventStall,          ///< spin the event loop until the event budget trips
  kWallStall,           ///< sleep past the wall-clock watchdog deadline
  kCheckpointWriteFail, ///< drop one checkpoint append on the floor
  kCheckpointTorn,      ///< write one checkpoint record torn mid-line
  kNeCell,              ///< fail one NE-search payoff cell transiently
  // Process-level classes (exp/fabric.hpp). The fabric SUPERVISOR owns the
  // injector and arms faults when it assigns a cell, so the fire-once
  // bookkeeping spans reassignments: a cell killed once is not re-killed by
  // the fresh worker process (whose own injector would re-derive the same
  // hash but has no shared fired-set).
  kWorkerKill,          ///< SIGKILL a fabric worker mid-cell
  kWorkerHang,          ///< stall a worker's heartbeat past the lease deadline
  kSupervisorCrash,     ///< crash the fabric supervisor before a commit
};

[[nodiscard]] const char* to_string(ChaosClass cls);

/// Thrown by chaos-injected failures so recovery code can tell an injected
/// (environmental) fault apart from a genuine error.
class ChaosFault : public std::runtime_error {
 public:
  ChaosFault(ChaosClass cls, const std::string& site)
      : std::runtime_error{std::string{"chaos fault ["} + to_string(cls) +
                           "] at " + site},
        cls_(cls) {}

  [[nodiscard]] ChaosClass cls() const noexcept { return cls_; }

 private:
  ChaosClass cls_;
};

class ChaosInjector {
 public:
  /// `rate` in [0, 1] is the per-site firing probability; the default 1.0
  /// fires every eligible site once, which is what the tests want.
  explicit ChaosInjector(std::uint64_t seed, double rate = 1.0);

  /// True when the fault at (cls, site) should fire now. Decides by
  /// hashing (seed, cls, site) — deterministic across runs and thread
  /// schedules — and marks the site fired so it never fires again.
  /// Thread-safe.
  [[nodiscard]] bool should_fire(ChaosClass cls, std::string_view site);

  /// Fires (as should_fire) and throws ChaosFault when it does.
  void maybe_throw(ChaosClass cls, const std::string& site) {
    if (should_fire(cls, site)) throw ChaosFault{cls, site};
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Count of sites fired for one class / overall. Thread-safe.
  [[nodiscard]] std::uint64_t fired(ChaosClass cls) const;
  [[nodiscard]] std::uint64_t total_fired() const;
  /// "chaos seed=S rate=R fired=N" — for logs and flight-recorder dumps.
  [[nodiscard]] std::string describe() const;

 private:
  std::uint64_t seed_;
  double rate_;
  mutable std::mutex mu_;
  std::set<std::pair<std::uint8_t, std::string>> fired_sites_;
  std::uint64_t fired_by_class_[16] = {};
};

}  // namespace bbrnash
