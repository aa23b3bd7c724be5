#include "exp/checkpoint.hpp"

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "exp/chaos.hpp"

namespace bbrnash {

namespace {

/// Reserved field holding the cell key inside each record.
constexpr const char* kKeyField = "key";

void append_kv(std::string& out, const char* key, double v) {
  out += ' ';
  out += key;
  out += '=';
  out += canonical_double(v);
}

void append_kv(std::string& out, const char* key, long long v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %s=%lld", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, unsigned long long v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %s=%llu", key, v);
  out += buf;
}

/// Every ImpairmentConfig knob, raw (the Gilbert chain is keyed by its four
/// parameters, not its stationary loss rate — two chains with the same
/// long-run rate but different burstiness measure differently).
void append_impairments(std::string& out, const std::string& tag,
                        const ImpairmentConfig& c) {
  append_kv(out, (tag + ".l").c_str(), c.loss_rate);
  append_kv(out, (tag + ".gpgb").c_str(), c.gilbert.p_good_to_bad);
  append_kv(out, (tag + ".gpbg").c_str(), c.gilbert.p_bad_to_good);
  append_kv(out, (tag + ".glg").c_str(), c.gilbert.loss_good);
  append_kv(out, (tag + ".glb").c_str(), c.gilbert.loss_bad);
  append_kv(out, (tag + ".ro").c_str(), c.reorder_rate);
  append_kv(out, (tag + ".rod").c_str(),
            static_cast<long long>(c.reorder_delay));
  append_kv(out, (tag + ".dup").c_str(), c.duplicate_rate);
  append_kv(out, (tag + ".j").c_str(), static_cast<long long>(c.jitter));
  append_kv(out, (tag + ".spp").c_str(),
            static_cast<long long>(c.spikes.period));
  append_kv(out, (tag + ".spw").c_str(),
            static_cast<long long>(c.spikes.width));
  append_kv(out, (tag + ".spm").c_str(),
            static_cast<long long>(c.spikes.magnitude));
}

}  // namespace

std::string canonical_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

CheckpointLog::CheckpointLog(std::string path, ChaosInjector* chaos)
    : path_(std::move(path)), chaos_(chaos) {
  for (auto& rec : read_jsonl(path_, &skipped_lines_)) {
    const std::string key = rec.get_string(kKeyField);
    if (!key.empty()) entries_[key] = std::move(rec);
  }
  if (skipped_lines_ > 0) {
    std::fprintf(stderr,
                 "checkpoint: skipped %zu unparseable line(s) in %s (torn "
                 "write from a crashed run?); resuming from the last "
                 "complete record — affected cells will re-run\n",
                 skipped_lines_, path_.c_str());
  }
}

CheckpointLog::~CheckpointLog() {
  {
    const std::lock_guard<std::mutex> lk{mu_};
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();  // drains pending_ before exiting
}

std::size_t CheckpointLog::size() const {
  const std::lock_guard<std::mutex> lk{mu_};
  return entries_.size();
}

std::optional<JsonlRecord> CheckpointLog::lookup(
    const std::string& key) const {
  const std::lock_guard<std::mutex> lk{mu_};
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void CheckpointLog::record(const std::string& key, JsonlRecord rec) {
  rec.set(kKeyField, key);
  std::string line = rec.encode();
  {
    // One critical section for both the map update and the queue push:
    // for any key, file append order matches in-memory last-write order,
    // so a reload reproduces exactly the state lookup() was serving.
    const std::lock_guard<std::mutex> lk{mu_};
    entries_[key] = std::move(rec);
    pending_.push_back(std::move(line));
    ++accepted_;
    if (!writer_.joinable()) {
      writer_ = std::thread{&CheckpointLog::writer_main, this};
    }
  }
  queue_cv_.notify_one();
}

void CheckpointLog::flush() {
  std::unique_lock<std::mutex> lk{mu_};
  drained_cv_.wait(lk, [&] { return written_ == accepted_; });
}

void CheckpointLog::writer_main() {
  std::unique_lock<std::mutex> lk{mu_};
  while (true) {
    queue_cv_.wait(lk, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<std::string> batch;
    batch.swap(pending_);
    lk.unlock();  // file I/O happens outside the lock
    for (const std::string& line : batch) {
      // Chaos drills: simulate the two write-path failures the resume
      // logic claims to survive. Neither touches the in-memory map, so the
      // current run's numbers are unaffected; only a *resumed* run sees
      // the damage — and recovers by re-running the lost cells.
      if (chaos_ != nullptr &&
          chaos_->should_fire(ChaosClass::kCheckpointWriteFail,
                              "checkpoint-write-fail " + path_)) {
        std::fprintf(stderr,
                     "checkpoint: chaos dropped one append to %s\n",
                     path_.c_str());
        continue;
      }
      if (chaos_ != nullptr &&
          chaos_->should_fire(ChaosClass::kCheckpointTorn,
                              "checkpoint-torn " + path_)) {
        // A torn write: half the record, no terminating newline — exactly
        // what a crash mid-append leaves behind. append_jsonl_line
        // self-heals by starting the next record on a fresh line.
        std::ofstream torn{path_, std::ios::app};
        if (torn) {
          torn << line.substr(0, line.size() / 2);
          torn.flush();
        }
        std::fprintf(stderr,
                     "checkpoint: chaos tore one append to %s\n",
                     path_.c_str());
        continue;
      }
      append_jsonl_line(path_, line);
    }
    lk.lock();
    written_ += batch.size();
    drained_cv_.notify_all();
  }
}

std::string mix_checkpoint_key(const NetworkParams& net, int num_cubic,
                               int num_other, CcKind other,
                               const TrialConfig& cfg) {
  std::string key = "mix";
  key.reserve(640);
  // Capacity is a double (bytes/sec); keying it through a long long cast
  // truncated sub-byte/sec differences into collisions and made the key
  // depend on the cast instead of the value. canonical_double round-trips
  // the exact bits — same fix for scheduled rates below.
  append_kv(key, "c", net.capacity);
  append_kv(key, "b", static_cast<long long>(net.buffer_bytes));
  append_kv(key, "r", static_cast<long long>(net.base_rtt));
  append_kv(key, "nc", static_cast<long long>(num_cubic));
  append_kv(key, "no", static_cast<long long>(num_other));
  key += " cc=";
  key += to_string(other);
  append_kv(key, "d", static_cast<long long>(cfg.duration));
  append_kv(key, "w", static_cast<long long>(cfg.warmup));
  append_kv(key, "t", static_cast<long long>(cfg.trials));
  append_kv(key, "s", static_cast<unsigned long long>(cfg.seed));
  append_impairments(key, "di", cfg.impairments);
  append_impairments(key, "ai", cfg.ack_impairments);
  // Full schedule contents: two sweeps with the same number of rate steps
  // but different flap times/rates must not collide.
  for (const RateChange& c : cfg.capacity_schedule) {
    append_kv(key, "sc.at", static_cast<long long>(c.at));
    append_kv(key, "sc.rate", c.rate);
  }
  // Guard policy: watchdog limits change where an aborted trial stops (and
  // so which trials are excluded from the averages), retries and injected
  // failures change which seeds the surviving trials ran with.
  append_kv(key, "g.ev",
            static_cast<unsigned long long>(cfg.guard.watchdog.max_events));
  append_kv(key, "g.wall", cfg.guard.watchdog.max_wall_seconds);
  append_kv(key, "g.att", static_cast<long long>(cfg.guard.max_attempts));
  append_kv(key, "g.bump",
            static_cast<unsigned long long>(cfg.guard.seed_bump));
  for (const std::uint64_t s : cfg.guard.inject_failure_seeds) {
    append_kv(key, "g.inj", static_cast<unsigned long long>(s));
  }
  return key;
}

JsonlRecord mix_to_record(const MixOutcome& m) {
  JsonlRecord rec;
  rec.set("per_flow_cubic_mbps", m.per_flow_cubic_mbps);
  rec.set("per_flow_other_mbps", m.per_flow_other_mbps);
  rec.set("total_cubic_mbps", m.total_cubic_mbps);
  rec.set("total_other_mbps", m.total_other_mbps);
  rec.set("avg_queue_delay_ms", m.avg_queue_delay_ms);
  rec.set("link_utilization", m.link_utilization);
  rec.set("cubic_buffer_avg", m.cubic_buffer_avg);
  rec.set("cubic_buffer_min", m.cubic_buffer_min);
  rec.set("noncubic_buffer_avg", m.noncubic_buffer_avg);
  rec.set("trials_completed", m.trials_completed);
  rec.set("trials_retried", m.trials_retried);
  rec.set("trials_failed", m.trials_failed);
  // One field per failure so a resumed sweep restores the same diagnostics
  // list (entry count included) as the uninterrupted run.
  for (std::size_t i = 0; i < m.failures.size(); ++i) {
    rec.set("failure_" + std::to_string(i), m.failures[i]);
  }
  return rec;
}

MixOutcome mix_from_record(const JsonlRecord& rec) {
  MixOutcome m;
  m.per_flow_cubic_mbps = rec.get_double("per_flow_cubic_mbps");
  m.per_flow_other_mbps = rec.get_double("per_flow_other_mbps");
  m.total_cubic_mbps = rec.get_double("total_cubic_mbps");
  m.total_other_mbps = rec.get_double("total_other_mbps");
  m.avg_queue_delay_ms = rec.get_double("avg_queue_delay_ms");
  m.link_utilization = rec.get_double("link_utilization");
  m.cubic_buffer_avg = rec.get_double("cubic_buffer_avg");
  m.cubic_buffer_min = rec.get_double("cubic_buffer_min");
  m.noncubic_buffer_avg = rec.get_double("noncubic_buffer_avg");
  m.trials_completed = static_cast<int>(rec.get_u64("trials_completed"));
  m.trials_retried = static_cast<int>(rec.get_u64("trials_retried"));
  m.trials_failed = static_cast<int>(rec.get_u64("trials_failed"));
  for (std::size_t i = 0; rec.has("failure_" + std::to_string(i)); ++i) {
    m.failures.push_back(rec.get_string("failure_" + std::to_string(i)));
  }
  return m;
}

std::string lease_key(const std::string& cell_key) {
  return "lease " + cell_key;
}

MixOutcome run_mix_trials_checkpointed(const NetworkParams& net,
                                       int num_cubic, int num_other,
                                       CcKind other, const TrialConfig& cfg,
                                       CheckpointLog* log) {
  if (log == nullptr) {
    return run_mix_trials(net, num_cubic, num_other, other, cfg);
  }
  const std::string key =
      mix_checkpoint_key(net, num_cubic, num_other, other, cfg);
  if (const auto hit = log->lookup(key)) {
    return mix_from_record(*hit);
  }
  const MixOutcome m = run_mix_trials(net, num_cubic, num_other, other, cfg);
  log->record(key, mix_to_record(m));
  return m;
}

}  // namespace bbrnash
