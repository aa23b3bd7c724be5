// Crash-safe sweep checkpoints.
//
// A CheckpointLog is an append-only JSONL file mapping a trial key (a
// string encoding every input that determines the outcome) to its measured
// numbers. Sweeps look a key up before simulating and append after; a
// killed sweep restarted with the same log re-reads the finished cells and
// resumes where it died. Because every double is written with full
// round-trip precision and per-cell seeds are pure functions of the
// configuration, a resumed sweep is numerically identical to an
// uninterrupted one (asserted by tests/exp/test_checkpoint.cpp). A torn
// trailing line from a crash mid-append parses as garbage and is skipped
// on reload — that cell simply re-runs.
//
// CheckpointLog is thread-safe: any number of sweep workers may interleave
// lookup() and record(). File appends are queued and drained by a single
// writer thread (MPSC), so record() never serializes workers behind disk
// I/O and the file only ever sees whole-line appends — the append-only
// crash-safety contract is unchanged. The widened crash window (a record
// accepted but not yet drained) loses at most the queue's tail, which
// recovers exactly like a torn line: those cells re-run. flush() blocks
// until every accepted record is on disk; the destructor drains and joins.
#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cc/congestion_control.hpp"
#include "exp/sweeps.hpp"
#include "model/network_params.hpp"
#include "util/jsonl.hpp"

namespace bbrnash {

class CheckpointLog {
 public:
  /// Opens (and replays) the log at `path`; the file need not exist yet.
  /// On duplicate keys the last record wins, so re-recording a key is
  /// harmless. Unparseable lines (a torn trailing write from a crash
  /// mid-append) are skipped with a warning — see skipped_lines() — and
  /// their cells simply re-run. A non-null `chaos` injects write failures
  /// and torn records into the writer thread (--chaos drills).
  explicit CheckpointLog(std::string path, ChaosInjector* chaos = nullptr);
  ~CheckpointLog();
  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t size() const;
  /// nullopt when the key has not been recorded. Returns a copy so the
  /// result stays valid while other threads keep recording.
  [[nodiscard]] std::optional<JsonlRecord> lookup(
      const std::string& key) const;
  /// Updates the in-memory view immediately and queues the file append
  /// for the writer thread.
  void record(const std::string& key, JsonlRecord rec);
  /// Blocks until every record() accepted so far has reached the file.
  void flush();
  /// Unparseable lines skipped while replaying the log at construction.
  [[nodiscard]] std::size_t skipped_lines() const noexcept {
    return skipped_lines_;
  }

 private:
  void writer_main();

  std::string path_;
  ChaosInjector* chaos_ = nullptr;
  std::size_t skipped_lines_ = 0;
  mutable std::mutex mu_;  ///< guards everything below
  std::map<std::string, JsonlRecord> entries_;
  std::condition_variable queue_cv_;    ///< wakes the writer
  std::condition_variable drained_cv_;  ///< wakes flush()
  std::vector<std::string> pending_;    ///< encoded lines not yet on disk
  std::size_t accepted_ = 0;  ///< lines handed to record()
  std::size_t written_ = 0;   ///< lines fully appended + flushed
  bool stop_ = false;
  std::thread writer_;  ///< started lazily on the first record()
};

/// Canonical text form of a floating-point knob inside a checkpoint key:
/// %.17g, the same full round-trip precision JsonlRecord uses for values.
/// Every float that enters a key MUST go through this one helper — a key
/// computed before a crash and recomputed after resume (possibly from a
/// value that round-tripped through the log) must be the same string, or
/// the resumed run silently re-runs (or worse, collides) cells. Pinned by
/// the CanonicalDouble tests in tests/exp/test_checkpoint.cpp.
[[nodiscard]] std::string canonical_double(double v);

/// Key for one run_mix_trials cell: network, mix, trial plan, every knob of
/// both impairment configs (raw Gilbert-Elliott parameters, not the
/// stationary rate), the full capacity schedule (each step's time and
/// rate), and the guard policy (watchdog limits, retries, injected
/// failures). Everything that changes the measured numbers is in here, so
/// one log file can serve a whole multi-dimension sweep. Floating-point
/// knobs (capacity and scheduled rates are doubles) are canonicalized via
/// canonical_double, NOT truncated to integers — two capacities that differ
/// below 1 byte/sec must not collide, and a key must survive a
/// value->text->value round trip unchanged.
[[nodiscard]] std::string mix_checkpoint_key(const NetworkParams& net,
                                             int num_cubic, int num_other,
                                             CcKind other,
                                             const TrialConfig& cfg);

[[nodiscard]] JsonlRecord mix_to_record(const MixOutcome& m);
[[nodiscard]] MixOutcome mix_from_record(const JsonlRecord& rec);

// --- Fabric lease records (exp/fabric.hpp) -------------------------------
//
// The multi-process sweep fabric coordinates workers through the SAME log:
// a cell's lease lifecycle (claim -> heartbeat -> expired/commit) is
// recorded under the derived key "lease <cell key>", so lease records and
// result records share the append-only file, last-write-wins replay, and
// torn-line recovery without colliding — a lease key can never equal a
// mix_checkpoint_key (which always starts with "mix").

/// Key under which a cell's lease state is recorded.
[[nodiscard]] std::string lease_key(const std::string& cell_key);

/// run_mix_trials with lookup-before-run and record-after-run; a null log
/// degenerates to a plain run_mix_trials call.
[[nodiscard]] MixOutcome run_mix_trials_checkpointed(
    const NetworkParams& net, int num_cubic, int num_other, CcKind other,
    const TrialConfig& cfg, CheckpointLog* log);

}  // namespace bbrnash
