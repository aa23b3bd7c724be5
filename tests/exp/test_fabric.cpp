// The sweep fabric's contract, drilled end to end with REAL processes:
//
//   * any claim/crash/reassignment schedule yields numbers bit-identical
//     to a serial run_mix_trials loop (the fabric must never change
//     results, only survive the environment);
//   * each process-level chaos class — worker SIGKILL mid-cell, worker
//     heartbeat stall, supervisor crash-before-commit — recovers to the
//     fault-free numbers, with the lease/incident audit trail to prove
//     the failure actually happened;
//   * a supervisor killed with SIGKILL (a genuine `kill -9`, not a drill)
//     leaves a checkpoint a fresh supervisor resumes to completion;
//   * degradation is typed (kPartial + failed-cell list), never an abort;
//   * the checkpoint round-trips entry-for-entry, and the fabric-stats
//     record's schema stays pinned.
#include "exp/fabric.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/chaos.hpp"
#include "exp/checkpoint.hpp"
#include "exp/nash_search.hpp"
#include "exp/sweeps.hpp"
#include "model/network_params.hpp"
#include "util/jsonl.hpp"

namespace bbrnash {
namespace {

NetworkParams small_net() { return make_params(20, 20, 3.0); }

TrialConfig small_trial() {
  TrialConfig t;
  t.duration = from_sec(3);
  t.warmup = from_sec(1);
  t.trials = 1;
  t.seed = 1;
  t.jobs = 1;
  return t;
}

std::vector<FabricCell> small_cells() {
  return {FabricCell{2, 0}, FabricCell{1, 1}, FabricCell{0, 2}};
}

/// Fresh per-test file pair under the gtest temp dir (checkpoint +
/// incident log), removed up front so reruns of the binary start clean.
std::string temp_path(const std::string& name) {
  const std::string path = std::string{::testing::TempDir()} + name;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".incidents.jsonl", ec);
  return path;
}

/// Serial reference: the exact numbers the fabric must reproduce.
std::vector<MixOutcome> serial_truth(const NetworkParams& net,
                                     const std::vector<FabricCell>& cells,
                                     const TrialConfig& trial) {
  std::vector<MixOutcome> truth;
  truth.reserve(cells.size());
  for (const FabricCell& c : cells) {
    truth.push_back(
        run_mix_trials(net, c.num_cubic, c.num_other, CcKind::kBbr, trial));
  }
  return truth;
}

/// Bit-identity through the checkpoint encoding: every field of every
/// cell, compared after the same %.17g round-trip both sides take.
void expect_cells_identical(const FabricOutcome& out,
                            const std::vector<MixOutcome>& truth) {
  ASSERT_EQ(out.cells.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ASSERT_TRUE(out.cells[i].has_value()) << "cell " << i << " missing";
    EXPECT_EQ(mix_to_record(*out.cells[i]).encode(),
              mix_to_record(truth[i]).encode())
        << "cell " << i << " diverged";
  }
}

/// All records in `path` whose key is the lease record for `cell_key`,
/// in append order (read_jsonl keeps every line, not last-write-wins).
std::vector<JsonlRecord> lease_trail(const std::string& path,
                                     const std::string& cell_key) {
  std::vector<JsonlRecord> out;
  for (const JsonlRecord& rec : read_jsonl(path)) {
    if (rec.has("key") && rec.get_string("key") == lease_key(cell_key)) {
      out.push_back(rec);
    }
  }
  return out;
}

std::size_t count_lease_state(const std::vector<JsonlRecord>& trail,
                              const std::string& state,
                              const std::string& why = "") {
  std::size_t n = 0;
  for (const JsonlRecord& rec : trail) {
    if (rec.get_string("lease") != state) continue;
    if (!why.empty() &&
        (!rec.has("why") || rec.get_string("why") != why)) {
      continue;
    }
    ++n;
  }
  return n;
}

std::vector<JsonlRecord> incident_records(const std::string& checkpoint) {
  return read_jsonl(checkpoint + ".incidents.jsonl");
}

std::size_t count_incidents(const std::vector<JsonlRecord>& incidents,
                            const std::string& trigger) {
  std::size_t n = 0;
  for (const JsonlRecord& rec : incidents) {
    EXPECT_EQ(rec.get_string("type"), "bbrnash-fabric-v1");
    if (rec.get_string("trigger") == trigger) ++n;
  }
  return n;
}

// --- Bit-identity without faults -----------------------------------------

TEST(Fabric, CellsBitIdenticalToSerialRun) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  const std::vector<MixOutcome> truth = serial_truth(net, cells, trial);

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = temp_path("fabric_basic.jsonl");
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  EXPECT_EQ(out.status, FabricStatus::kComplete);
  EXPECT_TRUE(out.complete());
  EXPECT_TRUE(out.failed_cells.empty());
  EXPECT_TRUE(out.message.empty());
  expect_cells_identical(out, truth);
  EXPECT_EQ(out.stats.cells_total, cells.size());
  EXPECT_EQ(out.stats.cells_committed, cells.size());
  EXPECT_EQ(out.stats.worker_deaths, 0u);
  EXPECT_EQ(out.stats.incidents, 0u);
}

TEST(Fabric, SweepEquivalentAcrossWorkersAndJobs) {
  const NetworkParams net = small_net();
  const int total = 2;
  NashSearchConfig cfg;
  cfg.trial = small_trial();
  const EmpiricalPayoffs truth = measure_payoffs(net, total, cfg);

  // The jobs x workers equivalence grid: threads inside each worker and
  // processes across cells must both be invisible in the numbers.
  const std::pair<int, int> grid[] = {{1, 1}, {2, 1}, {3, 1}, {2, 2}};
  for (const auto& [workers, jobs] : grid) {
    NashSearchConfig c = cfg;
    c.trial.jobs = jobs;
    FabricConfig fab;
    fab.workers = workers;
    fab.checkpoint_path =
        temp_path("fabric_grid_" + std::to_string(workers) + "_" +
                  std::to_string(jobs) + ".jsonl");
    const FabricSweepOutcome out = run_fabric_sweep(net, total, c, fab);
    ASSERT_EQ(out.status, FabricStatus::kComplete)
        << workers << " workers, " << jobs << " jobs: " << out.message;
    ASSERT_EQ(out.payoffs.cubic_mbps.size(), truth.cubic_mbps.size());
    for (std::size_t k = 0; k < truth.cubic_mbps.size(); ++k) {
      EXPECT_DOUBLE_EQ(out.payoffs.cubic_mbps[k], truth.cubic_mbps[k])
          << "k=" << k << " workers=" << workers << " jobs=" << jobs;
      EXPECT_DOUBLE_EQ(out.payoffs.other_mbps[k], truth.other_mbps[k])
          << "k=" << k << " workers=" << workers << " jobs=" << jobs;
    }
  }
}

// --- Checkpoint round-trip and the lease audit trail ----------------------

TEST(Fabric, CheckpointRoundTripsEntryForEntry) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  const std::vector<MixOutcome> truth = serial_truth(net, cells, trial);
  const std::string checkpoint = temp_path("fabric_roundtrip.jsonl");

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = checkpoint;
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  ASSERT_EQ(out.status, FabricStatus::kComplete);

  // Entry for entry: the committed record for every cell equals the serial
  // truth's encoding exactly (the checkpoint IS the coordination log, so
  // this also proves a resumed run reloads the same numbers).
  const CheckpointLog log{checkpoint};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string key = mix_checkpoint_key(
        net, cells[i].num_cubic, cells[i].num_other, CcKind::kBbr, trial);
    const auto hit = log.lookup(key);
    ASSERT_TRUE(hit.has_value()) << "cell " << i << " not in checkpoint";
    JsonlRecord expected = mix_to_record(truth[i]);
    expected.set("key", key);
    // Encoded-line equality, not operator==: the disk copy went through
    // parse(), which types every number by shape rather than by origin.
    EXPECT_EQ(hit->encode(), expected.encode()) << "cell " << i;
    // Clean run: exactly one claim and one commit, nothing expired.
    const auto trail = lease_trail(checkpoint, key);
    EXPECT_EQ(count_lease_state(trail, "claim"), 1u) << "cell " << i;
    EXPECT_EQ(count_lease_state(trail, "commit"), 1u) << "cell " << i;
    EXPECT_EQ(count_lease_state(trail, "expired"), 0u) << "cell " << i;
  }
  EXPECT_EQ(log.skipped_lines(), 0u);

  // Resume with everything already committed: nothing re-runs.
  const FabricOutcome resumed =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  EXPECT_EQ(resumed.status, FabricStatus::kComplete);
  EXPECT_EQ(resumed.stats.cells_from_checkpoint, cells.size());
  EXPECT_EQ(resumed.stats.cells_committed, 0u);
  expect_cells_identical(resumed, truth);
}

TEST(Fabric, StaleClaimFromDeadSupervisorIsExpiredOnResume) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  const std::string checkpoint = temp_path("fabric_stale.jsonl");
  const std::string key = mix_checkpoint_key(
      net, cells[1].num_cubic, cells[1].num_other, CcKind::kBbr, trial);

  // Forge what a supervisor that died mid-cell leaves behind: a claim with
  // no commit (the claiming pid is long gone).
  JsonlRecord claim;
  claim.set("key", lease_key(key));
  claim.set("lease", "claim");
  claim.set("worker", 0);
  claim.set("pid", std::uint64_t{999999});
  claim.set("epoch", std::uint64_t{1});
  append_jsonl_line(checkpoint, claim.encode());

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = checkpoint;
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  EXPECT_EQ(out.status, FabricStatus::kComplete);
  expect_cells_identical(out, serial_truth(net, cells, trial));
  EXPECT_GE(out.stats.leases_expired, 1u);
  const auto trail = lease_trail(checkpoint, key);
  EXPECT_EQ(count_lease_state(trail, "expired", "stale-on-resume"), 1u);
  EXPECT_EQ(count_lease_state(trail, "commit"), 1u);
}

// --- Chaos class 1: worker SIGKILL mid-cell -------------------------------

TEST(FabricChaos, WorkerKillRecoversBitIdentical) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  const std::string checkpoint = temp_path("fabric_kill.jsonl");

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = checkpoint;
  fab.chaos = std::make_shared<ChaosInjector>(17);
  fab.chaos_worker_hang = false;
  fab.chaos_supervisor_crash = false;
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  // Every cell's worker was SIGKILLed exactly once (rate-1.0 injector,
  // fire-once per cell), then the reassignment ran clean.
  EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
  expect_cells_identical(out, serial_truth(net, cells, trial));
  EXPECT_EQ(fab.chaos->fired(ChaosClass::kWorkerKill), cells.size());
  EXPECT_EQ(out.stats.worker_deaths, cells.size());
  EXPECT_EQ(out.stats.cells_reassigned, cells.size());
  EXPECT_EQ(out.stats.worker_hangs, 0u);
  EXPECT_EQ(out.stats.workers_retired, 0u);

  // The audit trail proves the failure was real: each cell has two claims
  // (original + reassignment) and a worker-signal expiry; the incident log
  // carries one bbrnash-fabric-v1 record per kill, with the signal number.
  for (const FabricCell& c : cells) {
    const std::string key =
        mix_checkpoint_key(net, c.num_cubic, c.num_other, CcKind::kBbr, trial);
    const auto trail = lease_trail(checkpoint, key);
    EXPECT_EQ(count_lease_state(trail, "claim"), 2u);
    EXPECT_EQ(count_lease_state(trail, "expired", "worker-signal"), 1u);
    EXPECT_EQ(count_lease_state(trail, "commit"), 1u);
  }
  const auto incidents = incident_records(checkpoint);
  EXPECT_EQ(count_incidents(incidents, "worker-signal"), cells.size());
  EXPECT_EQ(out.stats.incidents, incidents.size());
  for (const JsonlRecord& rec : incidents) {
    if (rec.get_string("trigger") == "worker-signal") {
      EXPECT_EQ(rec.get_u64("signal"), static_cast<std::uint64_t>(SIGKILL));
    }
  }
}

// --- Chaos class 2: worker heartbeat stall --------------------------------

TEST(FabricChaos, WorkerHangExpiresLeaseAndRecoversBitIdentical) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  // Two cells keep the (serialized, ~lease_ms each) expiries off the
  // test-suite critical path.
  const std::vector<FabricCell> cells = {FabricCell{1, 1}, FabricCell{0, 2}};
  const std::string checkpoint = temp_path("fabric_hang.jsonl");

  FabricConfig fab;
  fab.workers = 2;
  fab.lease_ms = 250.0;
  fab.checkpoint_path = checkpoint;
  fab.chaos = std::make_shared<ChaosInjector>(23);
  fab.chaos_worker_kill = false;
  fab.chaos_supervisor_crash = false;
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
  expect_cells_identical(out, serial_truth(net, cells, trial));
  EXPECT_EQ(fab.chaos->fired(ChaosClass::kWorkerHang), cells.size());
  EXPECT_EQ(out.stats.worker_hangs, cells.size());
  EXPECT_EQ(out.stats.cells_reassigned, cells.size());
  EXPECT_EQ(out.stats.workers_retired, 0u);

  for (const FabricCell& c : cells) {
    const std::string key =
        mix_checkpoint_key(net, c.num_cubic, c.num_other, CcKind::kBbr, trial);
    const auto trail = lease_trail(checkpoint, key);
    EXPECT_EQ(count_lease_state(trail, "expired", "heartbeat-stale"), 1u);
    EXPECT_EQ(count_lease_state(trail, "commit"), 1u);
  }
  EXPECT_EQ(count_incidents(incident_records(checkpoint), "worker-hang"),
            cells.size());
}

// --- Chaos class 3: supervisor crash before commit ------------------------

TEST(FabricChaos, SupervisorCrashResumesBitIdentical) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  const std::string checkpoint = temp_path("fabric_crash.jsonl");

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = checkpoint;
  fab.chaos = std::make_shared<ChaosInjector>(29);
  fab.chaos_worker_kill = false;
  fab.chaos_worker_hang = false;

  FabricOutcome out = run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  EXPECT_EQ(out.status, FabricStatus::kSupervisorCrashed);
  EXPECT_FALSE(out.complete());
  EXPECT_NE(out.message.find("re-run"), std::string::npos) << out.message;
  EXPECT_EQ(out.stats.supervisor_crashes, 1u);

  // Each re-run burns at most one fresh crash site (fire-once in the
  // caller-owned injector), so recovery converges within cells+1 reruns.
  int reruns = 0;
  while (out.status == FabricStatus::kSupervisorCrashed) {
    ASSERT_LT(reruns, static_cast<int>(cells.size()) + 1) << out.message;
    ++reruns;
    out = run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  }
  EXPECT_GE(reruns, 1);
  EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
  expect_cells_identical(out, serial_truth(net, cells, trial));
  EXPECT_GE(count_incidents(incident_records(checkpoint), "supervisor-crash"),
            1u);
}

TEST(FabricChaos, AllThreeClassesTogetherRecoverBitIdentical) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();

  FabricConfig fab;
  fab.workers = 2;
  fab.lease_ms = 250.0;
  fab.checkpoint_path = temp_path("fabric_all_chaos.jsonl");
  fab.chaos = std::make_shared<ChaosInjector>(7);

  FabricOutcome out = run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  int reruns = 0;
  while (out.status == FabricStatus::kSupervisorCrashed) {
    ASSERT_LT(reruns, static_cast<int>(cells.size()) + 1) << out.message;
    ++reruns;
    out = run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  }
  EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
  expect_cells_identical(out, serial_truth(net, cells, trial));
  EXPECT_GT(fab.chaos->total_fired(), 0u);
}

// --- Degradation: typed partial outcomes, never aborts --------------------

TEST(FabricDegrade, RetriesExhaustedYieldsTypedPartialOutcome) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = {FabricCell{1, 1}, FabricCell{0, 2}};

  FabricConfig fab;
  fab.workers = 2;
  fab.max_worker_retries = 0;  // any lost lease is final
  fab.checkpoint_path = temp_path("fabric_partial.jsonl");
  fab.chaos = std::make_shared<ChaosInjector>(31);
  fab.chaos_worker_hang = false;
  fab.chaos_supervisor_crash = false;
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  EXPECT_EQ(out.status, FabricStatus::kPartial);
  EXPECT_FALSE(out.complete());
  EXPECT_EQ(out.failed_cells.size(), cells.size());
  EXPECT_EQ(out.stats.retries_exhausted, cells.size());
  EXPECT_FALSE(out.message.empty());
  for (const auto& cell : out.cells) EXPECT_FALSE(cell.has_value());
}

TEST(FabricDegrade, ZeroTrialCellCommitsItsDiagnostics) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  // A 0+0-flow cell fails scenario validation in every trial: the worker
  // still reports it (done, trials_completed == 0) so the diagnosis is
  // committed instead of wedging or crashing the pool.
  const std::vector<FabricCell> cells = {FabricCell{1, 1}, FabricCell{0, 0}};

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = temp_path("fabric_zerotrial.jsonl");
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);

  EXPECT_EQ(out.status, FabricStatus::kComplete);
  ASSERT_TRUE(out.cells[1].has_value());
  EXPECT_EQ(out.cells[1]->trials_completed, 0);
  EXPECT_EQ(out.cells[1]->trials_failed, 1);
  ASSERT_EQ(out.cells[1]->failures.size(), 1u);
}

TEST(FabricDegrade, SweepDowngradesZeroTrialCellsToPartial) {
  const NetworkParams net = small_net();
  const int total = 2;
  NashSearchConfig cfg;
  cfg.trial = small_trial();
  // Injected failure on the (single) trial seed: every cell completes zero
  // trials, so the sweep must downgrade to kPartial with every k listed —
  // the typed analogue of measure_payoffs' throw.
  cfg.trial.guard.inject_failure_seeds = {cfg.trial.seed};

  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = temp_path("fabric_sweep_partial.jsonl");
  const FabricSweepOutcome out = run_fabric_sweep(net, total, cfg, fab);

  EXPECT_EQ(out.status, FabricStatus::kPartial);
  EXPECT_FALSE(out.complete());
  EXPECT_EQ(out.failed_k.size(), static_cast<std::size_t>(total) + 1);
  EXPECT_NE(out.message.find("zero completed trials"), std::string::npos)
      << out.message;
}

TEST(Fabric, IllFormedConfigThrows) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  const std::vector<FabricCell> cells = small_cells();
  FabricConfig fab;

  fab.workers = 0;
  EXPECT_THROW(run_fabric_cells(net, cells, CcKind::kBbr, trial, fab),
               std::invalid_argument);
  fab.workers = 2;
  fab.lease_ms = 0.0;
  EXPECT_THROW(run_fabric_cells(net, cells, CcKind::kBbr, trial, fab),
               std::invalid_argument);
  fab.lease_ms = 2000.0;
  fab.max_worker_retries = -1;
  EXPECT_THROW(run_fabric_cells(net, cells, CcKind::kBbr, trial, fab),
               std::invalid_argument);
  fab.max_worker_retries = 3;
  EXPECT_THROW(run_fabric_cells(net, {}, CcKind::kBbr, trial, fab),
               std::invalid_argument);
  EXPECT_THROW(run_fabric_sweep(net, 0, NashSearchConfig{}, fab),
               std::invalid_argument);
}

// --- Real supervisor death (`kill -9`, not a drill) -----------------------

TEST(FabricCrash, SigkilledSupervisorResumesFromCheckpoint) {
  const NetworkParams net = small_net();
  TrialConfig trial = small_trial();
  trial.duration = from_sec(20);  // cells cost real wall time, so the
  trial.warmup = from_sec(4);     // SIGKILL lands mid-run
  const std::vector<FabricCell> cells = small_cells();
  const std::string checkpoint = temp_path("fabric_kill9.jsonl");

  FabricConfig fab;
  fab.workers = 1;
  fab.checkpoint_path = checkpoint;

  // bbrnash-lint: allow(process-control) -- the test IS the process drill:
  // fork a whole fabric run, then SIGKILL it mid-sweep like an OOM killer.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const FabricOutcome child_out =
        run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
    (void)child_out;
    // bbrnash-lint: allow(process-control) -- a fork child of the gtest
    // process must leave via _exit (no duplicated atexit/flush state).
    _exit(0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // bbrnash-lint: allow(process-control) -- the genuine kill -9 the
  // checkpoint log claims to survive.
  kill(pid, SIGKILL);
  int status = 0;
  // bbrnash-lint: allow(process-control) -- reap the killed supervisor.
  ASSERT_EQ(waitpid(pid, &status, 0), pid);

  // Whether the child died mid-cell, mid-append, or after finishing, a
  // fresh supervisor on the same checkpoint must converge to the serial
  // numbers. (A torn trailing line from the SIGKILL is legal input here —
  // the log self-heals and the affected cell re-runs.)
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
  expect_cells_identical(out, serial_truth(net, cells, trial));
}

// --- SIGTERM/SIGINT: interrupted sweeps flush and resume ------------------

TEST(FabricSignals, SigtermInterruptsFlushesAndResumes) {
  const NetworkParams net = small_net();
  TrialConfig trial = small_trial();
  trial.duration = from_sec(20);
  trial.warmup = from_sec(4);
  const std::vector<FabricCell> cells = small_cells();
  const std::string checkpoint = temp_path("fabric_sigterm.jsonl");

  FabricConfig fab;
  fab.workers = 1;  // serialize cells so the signal lands mid-run
  fab.checkpoint_path = checkpoint;

  // Park SIGTERM on SIG_IGN around the run: if the timed signal lands
  // after the fabric restored the previous handler, it must be ignored,
  // not kill the test binary.
  struct sigaction ign;
  std::memset(&ign, 0, sizeof ign);
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  struct sigaction old_term;
  // bbrnash-lint: allow(process-control) -- park SIGTERM on SIG_IGN so the
  // restored-handler delivery cannot kill the test binary.
  sigaction(SIGTERM, &ign, &old_term);

  std::thread signaller{[] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // bbrnash-lint: allow(process-control) -- delivers the ctrl-C/SIGTERM
    // this satellite exists to survive.
    kill(getpid(), SIGTERM);
  }};
  const FabricOutcome out =
      run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
  signaller.join();
  // bbrnash-lint: allow(process-control) -- restore the default SIGTERM
  // disposition now that the delivery window has passed.
  sigaction(SIGTERM, &old_term, nullptr);

  if (out.status == FabricStatus::kInterrupted) {
    // The headline satellite property: everything committed before the
    // signal is on disk, the incident log says why the run stopped, and a
    // rerun finishes the job bit-identically.
    EXPECT_NE(out.message.find("re-run"), std::string::npos) << out.message;
    EXPECT_GE(count_incidents(incident_records(checkpoint), "interrupted"),
              1u);
    const FabricOutcome resumed =
        run_fabric_cells(net, cells, CcKind::kBbr, trial, fab);
    EXPECT_EQ(resumed.status, FabricStatus::kComplete) << resumed.message;
    EXPECT_GE(resumed.stats.cells_from_checkpoint, out.stats.cells_committed);
    expect_cells_identical(resumed, serial_truth(net, cells, trial));
  } else {
    // The run outraced the timer — then it must simply be complete.
    EXPECT_EQ(out.status, FabricStatus::kComplete) << out.message;
    expect_cells_identical(out, serial_truth(net, cells, trial));
  }
}

// --- The fabric-stats record schema ---------------------------------------

/// Keys of a flat JSONL object in encode() order.
std::vector<std::string> record_keys(const std::string& encoded) {
  std::vector<std::string> keys;
  bool in_str = false;
  std::string cur;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (!in_str) {
      if (c == '"') {
        in_str = true;
        cur.clear();
      }
      continue;
    }
    if (c == '\\') {
      cur.push_back(encoded[++i]);
    } else if (c == '"') {
      in_str = false;
      if (i + 1 < encoded.size() && encoded[i + 1] == ':') {
        keys.push_back(cur);
      }
    } else {
      cur.push_back(c);
    }
  }
  return keys;
}

TEST(FabricStats, RecordSchemaIsPinned) {
  const NetworkParams net = small_net();
  const TrialConfig trial = small_trial();
  FabricConfig fab;
  fab.workers = 2;
  fab.checkpoint_path = temp_path("fabric_stats.jsonl");
  const FabricOutcome out =
      run_fabric_cells(net, small_cells(), CcKind::kBbr, trial, fab);
  ASSERT_EQ(out.status, FabricStatus::kComplete);

  const JsonlRecord rec = fabric_stats_to_record(out.stats);
  EXPECT_EQ(rec.get_string("type"), "bbrnash-fabric-stats-v1");
  // The schema contract (--fabric-stats consumers key on these): extend
  // the record, never rename or drop. Keys appear in encode() sort order.
  const std::vector<std::string> expected = {
      "backoff_seconds_total",
      "cells_committed",
      "cells_failed",
      "cells_from_checkpoint",
      "cells_per_second",
      "cells_reassigned",
      "cells_total",
      "checkpoint_skipped_lines",
      "incidents",
      "leases_expired",
      "retries_exhausted",
      "supervisor_crashes",
      "type",
      "w0.claimed",
      "w0.committed",
      "w0.expired",
      "w0.spawns",
      "w1.claimed",
      "w1.committed",
      "w1.expired",
      "w1.spawns",
      "wall_seconds",
      "worker_deaths",
      "worker_hangs",
      "worker_respawns",
      "workers",
      "workers_retired",
  };
  EXPECT_EQ(record_keys(rec.encode()), expected);

  // And it must be a parseable JSONL line like every other record.
  const auto reparsed = JsonlRecord::parse(rec.encode());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->encode(), rec.encode());
  EXPECT_EQ(rec.get_u64("cells_total"), 3u);
  EXPECT_EQ(rec.get_u64("workers"), 2u);
}

}  // namespace
}  // namespace bbrnash
