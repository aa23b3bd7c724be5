// bbrnash_e2e_trace: the benchmark's traced run, which gives its per-layer
// numbers. The end-to-end metrics come from bbrnash_e2e with tracing off.
//
//   bbrnash_e2e_trace --workload W [--seed N] [--seconds S] [--run-dir DIR]
//   bbrnash_e2e_trace --smoke [--workload W]
//
// It times the benchmark's own calls into each layer:
//   sim, net, flow  a mirror of the production dumbbell (execute_scenario in
//                   src/exp/scenario_runner.cpp: same seed forks, access and
//                   start jitter, warm-up event and 500 ms run slices) built
//                   from the public classes. Its sink lambdas open a span
//                   around BottleneckLink::send, DelayLine::send,
//                   ImpairmentStage::send, Receiver::on_packet,
//                   Sender::on_ack and Simulator::run_until. Each traced
//                   trial also runs through run_scenario_guarded, and the two
//                   event counts must match; otherwise the mirror numbers are
//                   withheld and the run is reported incorrect.
//   cc              a replay of 10M seeded synthetic AckEvents per algorithm,
//                   with a LossEvent every 1000 ACKs.
//   exp             (ne_fig9) one pass over the NE grid fanned out by
//                   parallel_for, with spans around find_ne_crossing and
//                   predict_nash_region and the pool's telemetry.
//   model           timed calls of two_flow_prediction and
//                   predict_nash_region.
// Counts and times are kept for every call; the first spans after warm-up
// of each trial are kept whole and written with the per-trial summaries to
// <run-dir>/<workload>-s<seed>-trace/trace.jsonl at exit.
//
// The mirror copies wiring that a statically wired pipeline will replace,
// and spans inside the program will then delete it. It lives in its own
// target so the untraced bbrnash_e2e builds and measures even if this one
// stops compiling.
#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/cc_variant.hpp"
#include "common.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario_runner.hpp"
#include "flow/receiver.hpp"
#include "flow/sender.hpp"
#include "model/mishra_model.hpp"
#include "model/nash.hpp"
#include "net/bottleneck_link.hpp"
#include "net/delay_line.hpp"
#include "net/impairment.hpp"
#include "sim/simulator.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bbrnash::e2e {
namespace {

enum Span : std::uint8_t {
  kRunUntil,
  kLinkSend,
  kDelaySend,
  kImpairSend,
  kReceiverOnPacket,
  kSenderOnAck,
  kCalibrate,
  kSpanKinds
};
constexpr const char* kSpanNames[kSpanKinds] = {
    "sim.run_until",           "net.link.send",
    "net.delay.send",          "net.impair.send",
    "flow.receiver.on_packet", "flow.sender.on_ack",
    "trace.calibrate"};

/// Whole spans kept per trial, counted from the end of warm-up.
constexpr std::size_t kSampleCap = 2000;

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t children = 0;  ///< direct child spans
  double incl_ns = 0.0;
  double child_ns = 0.0;  ///< inclusive time of direct children
};

struct SpanRecord {
  std::uint32_t unit = 0;
  Span kind = kRunUntil;
  std::int64_t start_ns = 0;  ///< from the trial's start
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index into the sample, -1 when unsampled
  std::uint32_t flow = 0;     ///< chain id (flow, seq): one packet's journey
  std::uint64_t seq = 0;
};

/// Single-threaded span recorder with a stack of open spans.
class Tracer {
 public:
  void begin_trial(std::uint32_t unit) {
    unit_ = unit;
    origin_ = Clock::now();
    sampling_ = false;
    sampled_in_trial_ = 0;
  }
  void start_sampling() { sampling_ = true; }

  template <typename F>
  void span(Span kind, std::uint32_t flow, std::uint64_t seq, F&& f) {
    std::int64_t sample = -1;
    if (sampling_ && sampled_in_trial_ < kSampleCap) {
      ++sampled_in_trial_;
      sample = static_cast<std::int64_t>(samples_.size());
      samples_.push_back(SpanRecord{unit_, kind, 0, 0,
                                    stack_.empty() ? -1 : stack_.back().sample,
                                    flow, seq});
    }
    stack_.push_back(Frame{sample, 0, 0.0});
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    const Frame me = stack_.back();
    stack_.pop_back();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    SpanTotals& tot = totals_[kind];
    ++tot.calls;
    tot.incl_ns += ns;
    tot.children += me.children;
    tot.child_ns += me.child_ns;
    if (!stack_.empty()) {
      ++stack_.back().children;
      stack_.back().child_ns += ns;
    }
    if (sample >= 0) {
      SpanRecord& r = samples_[static_cast<std::size_t>(sample)];
      r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_).count();
      r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - origin_).count();
    }
  }

  [[nodiscard]] const SpanTotals& totals(Span k) const { return totals_[k]; }
  [[nodiscard]] const std::vector<SpanRecord>& samples() const { return samples_; }

 private:
  struct Frame {
    std::int64_t sample;
    std::uint64_t children;
    double child_ns;
  };
  std::array<SpanTotals, kSpanKinds> totals_{};
  std::vector<Frame> stack_;
  std::vector<SpanRecord> samples_;
  Clock::time_point origin_{};
  std::uint32_t unit_ = 0;
  bool sampling_ = false;
  std::size_t sampled_in_trial_ = 0;
};

/// What one span costs the run, split into the part inside its own
/// interval and the rest, which lands in its parent's.
struct TimerCost {
  double inner_ns = 0.0;
  double outer_ns = 0.0;  ///< the whole cost of one span
};

/// The split, from a tight loop of empty spans under one root. A tight
/// loop overstates what a span costs between real work, so the benchmark
/// scales it to the overhead it measures in place (see in_place_cost).
TimerCost calibrate_timer() {
  Tracer tr;
  constexpr std::uint64_t kSpans = 1'000'000;
  tr.span(kCalibrate, 0, 0, [&] {
    for (std::uint64_t i = 0; i < kSpans; ++i) tr.span(kCalibrate, 0, i, [] {});
  });
  // Totals cover the root and its children: child_ns is the children's
  // inclusive time, incl_ns - child_ns the root's.
  const SpanTotals& t = tr.totals(kCalibrate);
  const auto n = static_cast<double>(kSpans);
  return TimerCost{t.child_ns / n, (t.incl_ns - t.child_ns) / n};
}

/// Per-span cost in the traced trials: traced minus production wall time
/// over the spans recorded, split as the calibration loop splits it.
TimerCost in_place_cost(const TimerCost& loop, double extra_s, double spans) {
  if (spans <= 0.0 || loop.outer_ns <= 0.0) return {};
  const double outer = std::max(0.0, extra_s) * 1e9 / spans;
  return TimerCost{loop.inner_ns * outer / loop.outer_ns, outer};
}

/// Self time of a span kind: inclusive time minus its children's, minus
/// the tracer's own cost inside it (see TimerCost).
double self_ns(const SpanTotals& t, const TimerCost& c) {
  return t.incl_ns - t.child_ns - static_cast<double>(t.calls) * c.inner_ns -
         static_cast<double>(t.children) * (c.outer_ns - c.inner_ns);
}

// --- The mirror dumbbell ----------------------------------------------------

struct Delivery {
  Packet pkt;
  TimeNs sojourn;
};

/// The production per-flow impairment seed mixer (SplitMix64 finalizer).
std::uint64_t impairment_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct MirrorResult {
  std::uint64_t events = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t impair_offered = 0;
  std::uint64_t impair_dropped = 0;
  double queue_occupancy_frac = 0.0;  ///< time-avg queue / buffer, post warm-up
};

MirrorResult run_mirror(const Scenario& sc, Tracer& tr) {
  if (sc.aqm != AqmKind::kDropTail || !sc.capacity_schedule.empty() ||
      sc.audit.active() || sc.sample_period > 0 || sc.virtual_cc_dispatch) {
    throw std::invalid_argument{
        "the mirror covers drop-tail scenarios without schedules, audit, "
        "sampling or the virtual CC adapter"};
  }
  const auto n = static_cast<std::uint32_t>(sc.flows.size());
  Simulator sim;
  Rng rng{sc.seed};
  BottleneckLink link{sim, sc.capacity, sc.buffer_bytes, n};
  MirrorResult out;

  // Entry hop of each flow's access path: the impairment stage when the
  // path is impaired, else the bottleneck. Events capture one pointer to it
  // plus the packet, which keeps them inside the event record's inline
  // buffer as production's do.
  struct Entry {
    BottleneckLink* link;
    ImpairmentStage<Packet>* stage;
    Tracer* tr;
    void send(const Packet& pkt) const {
      if (stage != nullptr) {
        tr->span(kImpairSend, pkt.flow, pkt.seq, [&] { stage->send(pkt); });
      } else {
        tr->span(kLinkSend, pkt.flow, pkt.seq, [&] { link->send(pkt); });
      }
    }
  };

  std::vector<std::unique_ptr<Sender>> senders;
  std::vector<std::unique_ptr<Receiver>> receivers;
  std::vector<std::unique_ptr<DelayLine<Delivery>>> fwd_lines;
  std::vector<std::unique_ptr<DelayLine<Ack>>> rev_lines;
  std::vector<std::unique_ptr<ImpairmentStage<Packet>>> data_stages(n);
  std::vector<std::unique_ptr<ImpairmentStage<Ack>>> ack_stages(n);
  std::vector<Entry> entries(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const ImpairmentConfig& data_cfg =
        sc.flows[i].impairments ? *sc.flows[i].impairments : sc.impairments;
    if (data_cfg.any()) {
      data_stages[i] = std::make_unique<ImpairmentStage<Packet>>(
          sim, data_cfg, impairment_seed(sc.seed, 2ULL * i + 1));
      data_stages[i]->set_sink([&link, &tr](const Packet& pkt) {
        tr.span(kLinkSend, pkt.flow, pkt.seq, [&] { link.send(pkt); });
      });
    }
    if (sc.ack_impairments.any()) {
      ack_stages[i] = std::make_unique<ImpairmentStage<Ack>>(
          sim, sc.ack_impairments, impairment_seed(sc.seed, 2ULL * i + 2));
    }
    entries[i] = Entry{&link, data_stages[i].get(), &tr};
  }

  struct AccessPath {
    Rng rng;
    TimeNs jitter = 1;
    TimeNs last_arrival = 0;
  };
  std::vector<AccessPath> access(n);
  const TimeNs default_jitter =
      serialization_time(sc.mss + kHeaderBytes, sc.capacity);
  for (auto& a : access) {
    a.rng = rng.fork();
    a.jitter = std::max<TimeNs>(
        1, sc.access_jitter >= 0 ? sc.access_jitter : default_jitter);
  }

  senders.reserve(n);
  receivers.reserve(n);
  fwd_lines.reserve(n);
  rev_lines.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const FlowSpec& spec = sc.flows[i];
    const TimeNs one_way = spec.base_rtt / 2;
    receivers.push_back(std::make_unique<Receiver>(i));
    fwd_lines.push_back(std::make_unique<DelayLine<Delivery>>(sim, one_way));
    rev_lines.push_back(
        std::make_unique<DelayLine<Ack>>(sim, spec.base_rtt - one_way));

    CcConfig cc_cfg;
    cc_cfg.mss = sc.mss;
    cc_cfg.initial_cwnd = 10 * sc.mss;
    cc_cfg.seed = rng.next_u64();
    cc_cfg.bbr_cwnd_gain = sc.bbr_cwnd_gain;
    SenderConfig snd_cfg;
    snd_cfg.mss = sc.mss;
    snd_cfg.transfer_bytes = spec.transfer_bytes;
    const Entry* entry = &entries[i];
    senders.push_back(std::make_unique<Sender>(
        sim, i, snd_cfg, make_cc_variant(spec.cc, cc_cfg),
        [&sim, &access, &out, entry, i](const Packet& pkt) {
          ++out.packets_sent;
          access[i].last_arrival = std::max(
              access[i].last_arrival + 1,
              sim.now() + static_cast<TimeNs>(access[i].rng.next_below(
                              static_cast<std::uint64_t>(access[i].jitter))));
          sim.schedule_at(access[i].last_arrival,
                          [entry, pkt] { entry->send(pkt); });
        }));

    fwd_lines[i]->set_sink([&receivers, &tr, i](const Delivery& d) {
      tr.span(kReceiverOnPacket, i, d.pkt.seq,
              [&] { receivers[i]->on_packet(d.pkt, d.sojourn); });
    });
    if (ack_stages[i] != nullptr) {
      ack_stages[i]->set_sink([&rev_lines, &tr, i](const Ack& ack) {
        tr.span(kDelaySend, i, ack.acked_seq, [&] { rev_lines[i]->send(ack); });
      });
      ImpairmentStage<Ack>* ack_stage = ack_stages[i].get();
      receivers[i]->set_ack_sink([ack_stage, &tr, i](const Ack& ack) {
        tr.span(kImpairSend, i, ack.acked_seq, [&] { ack_stage->send(ack); });
      });
    } else {
      receivers[i]->set_ack_sink([&rev_lines, &tr, i](const Ack& ack) {
        tr.span(kDelaySend, i, ack.acked_seq, [&] { rev_lines[i]->send(ack); });
      });
    }
    rev_lines[i]->set_sink([&senders, &tr, i](const Ack& ack) {
      tr.span(kSenderOnAck, i, ack.acked_seq, [&] { senders[i]->on_ack(ack); });
    });
  }
  link.set_sink([&sim, &fwd_lines, &tr](const Packet& pkt) {
    const TimeNs sojourn =
        pkt.enqueued_at == kTimeNone ? 0 : sim.now() - pkt.enqueued_at;
    tr.span(kDelaySend, pkt.flow, pkt.seq,
            [&] { fwd_lines[pkt.flow]->send(Delivery{pkt, sojourn}); });
  });

  std::vector<FlowId> cubic_ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (sc.flows[i].cc == CcKind::kCubic) cubic_ids.push_back(i);
  }
  if (!cubic_ids.empty()) link.queue().track_group(cubic_ids);

  for (std::uint32_t i = 0; i < n; ++i) {
    const TimeNs jitter =
        sc.start_jitter > 0
            ? static_cast<TimeNs>(rng.next_below(
                  static_cast<std::uint64_t>(sc.start_jitter)))
            : 0;
    senders[i]->start(sc.flows[i].start_at != kTimeNone ? sc.flows[i].start_at
                                                        : jitter);
  }

  sim.schedule_at(sc.warmup, [&] {
    link.queue().begin_measurement(sim.now());
    for (auto& s : senders) s->begin_measurement();
    tr.start_sampling();
  });

  const TimeNs slice = from_ms(500);
  for (TimeNs t = 0; t < sc.duration;) {
    t = std::min<TimeNs>(t + slice, sc.duration);
    tr.span(kRunUntil, 0, 0, [&] { sim.run_until(t); });
  }

  link.queue().finalize(sim.now());
  out.events = sim.events_executed();
  out.link_drops = link.queue().total_drops();
  for (const auto& s : senders) {
    out.retransmits += s->retransmit_count();
    out.rtos += s->rto_count();
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const ImpairmentCounters* c :
         {data_stages[i] ? &data_stages[i]->counters() : nullptr,
          ack_stages[i] ? &ack_stages[i]->counters() : nullptr}) {
      if (c == nullptr) continue;
      out.impair_offered += c->offered;
      out.impair_dropped += c->dropped;
    }
  }
  out.queue_occupancy_frac = link.queue().avg_occupied_bytes() /
                             static_cast<double>(sc.buffer_bytes);
  return out;
}

// --- CC replay and model timings -------------------------------------------

/// ns per on_ack over `acks` synthetic ACKs of a 100 Mbps / 40 ms path.
double replay_cc_ns(CcKind kind, std::uint64_t seed, std::size_t acks) {
  CcConfig cfg;
  cfg.seed = seed;
  CcVariant cc = make_cc_variant(kind, cfg);
  Rng rng{seed};
  const BytesPerSec rate = mbps(100);
  const TimeNs gap = serialization_time(kDefaultMss + kHeaderBytes, rate);
  const Bytes bdp = bdp_bytes(rate, from_ms(40));
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<AckEvent> block(kBlock);
  TimeNs now = 0;
  Bytes delivered = 0;
  double ns = 0.0;
  cc.on_start(0);
  for (std::size_t done = 0; done < acks;) {
    const std::size_t m = std::min(kBlock, acks - done);
    for (std::size_t i = 0; i < m; ++i) {  // untimed: next block of ACKs
      AckEvent& ev = block[i];
      now += gap;
      delivered += kDefaultMss;
      ev.now = now;
      ev.rtt = from_ms(40) + static_cast<TimeNs>(rng.next_below(
                                 static_cast<std::uint64_t>(from_ms(20))));
      ev.acked_bytes = kDefaultMss;
      ev.delivered = delivered;
      ev.prior_delivered = std::max<Bytes>(0, delivered - bdp);
      ev.delivery_rate = rate * rng.uniform(0.8, 1.2);
      ev.inflight = bdp + static_cast<Bytes>(
                              rng.next_below(static_cast<std::uint64_t>(bdp)));
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      cc.on_ack(block[i]);
      if ((done + i) % 1000 == 999) {
        cc.on_congestion_event(LossEvent{block[i].now, block[i].inflight,
                                         kDefaultMss, block[i].delivered});
      }
    }
    ns += seconds_since(t0) * 1e9;
    done += m;
  }
  if (cc.cwnd() <= 0) throw std::runtime_error{"CC replay collapsed cwnd"};
  return ns / static_cast<double>(acks);
}

struct ModelTimes {
  double two_flow_us = 0.0;
  double region_us = 0.0;
};

/// Model calls over the Fig. 3 cells and the NE grid points, the same for
/// every workload so the numbers compare across runs.
ModelTimes time_models() {
  double sink = 0.0;
  ModelTimes m;
  constexpr std::size_t kTwoFlow = 4800;  // 40 passes over the 120 cells
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < kTwoFlow; ++i) {
    const auto p = two_flow_prediction(unit_network(Workload::kFig3TwoFlow, i));
    sink += p ? p->lambda_bbr : 0.0;
  }
  m.two_flow_us = seconds_since(t0) * 1e6 / kTwoFlow;
  constexpr std::size_t kRegion = 240;  // 10 passes over the 24 points
  t0 = Clock::now();
  for (std::size_t i = 0; i < kRegion; ++i) {
    const auto r =
        predict_nash_region(unit_network(Workload::kNeFig9, i), kNeFlows);
    sink += r ? r->cubic_high() : 0.0;
  }
  m.region_us = seconds_since(t0) * 1e6 / kRegion;
  if (!(sink > 0.0)) throw std::runtime_error{"model calls returned nothing"};
  return m;
}

// --- ne_fig9: one traced pass over the grid --------------------------------

struct NePoint {
  int k = -1;
  double find_s = 0.0;
  double region_s = 0.0;
  std::uint64_t cells = 0;
  std::uint64_t trials = 0;
  std::uint64_t log_bytes = 0;
  std::string failure;
};

std::vector<NePoint> trace_ne_grid(const Options& opts, const std::string& dir) {
  const std::size_t points = opts.smoke ? smoke_units(Workload::kNeFig9) : 24;
  std::vector<NePoint> out(points);
  reset_parallel_telemetry();
  parallel_for(kNeThreads, points, [&](std::size_t u) {
    NePoint& p = out[u];
    const std::string log = dir + "/ne-" + std::to_string(u) + ".jsonl";
    const NetworkParams net = unit_network(Workload::kNeFig9, u);
    try {
      auto t0 = Clock::now();
      p.k = find_ne_crossing(net, kNeFlows, ne_config(opts.seed, u, log));
      p.find_s = seconds_since(t0);
      t0 = Clock::now();
      const auto region = predict_nash_region(net, kNeFlows);
      p.region_s = seconds_since(t0);
      for (const JsonlRecord& c : read_jsonl(log)) {
        ++p.cells;
        p.trials += c.get_u64("trials_completed");
      }
      p.log_bytes = std::filesystem::file_size(log);
      if (p.k < 0 || p.k > kNeFlows || p.trials == 0 || !region) {
        p.failure = "NE point failed its self-checks";
      }
    } catch (const std::exception& e) {
      p.failure = e.what();
    }
  });
  return out;
}

// --- One traced workload ------------------------------------------------------

struct TrialTrace {
  std::size_t unit = 0;
  std::uint64_t events_production = 0;
  MirrorResult mirror;
  double wall_production_s = 0.0;
  double wall_traced_s = 0.0;
};

bool trace_workload(Workload w, const Options& opts) {
  const char* name = to_string(w);
  const std::string dir = fresh_run_dir(opts, w, "-trace");
  const TimerCost timer = calibrate_timer();
  bool correct = true;
  std::uint64_t failed = 0;

  std::vector<NePoint> ne;
  if (w == Workload::kNeFig9) {
    ne = trace_ne_grid(opts, dir);
    for (std::size_t u = 0; u < ne.size(); ++u) {
      if (!ne[u].failure.empty()) {
        correct = false;
        ++failed;
        std::printf("check %s: point %zu: %s\n", name, u, ne[u].failure.c_str());
      }
    }
  }
  const ParallelTelemetry pool = parallel_telemetry();

  // Mirror trials, each checked against production; ne_fig9 mirrors the
  // even-mix trial shape its searches run.
  Tracer tr;
  std::vector<TrialTrace> trials;
  const bool timed = !opts.smoke && w != Workload::kNeFig9;
  const auto t_start = Clock::now();
  for (std::size_t u = 0;
       timed ? u == 0 || seconds_since(t_start) < opts.seconds
             : u < smoke_units(w);
       ++u) {
    const Scenario s = unit_scenario(w, opts.seed, u);
    TrialTrace t;
    t.unit = u;
    auto t0 = Clock::now();
    const RunOutcome o = run_scenario_guarded(s);
    t.wall_production_s = seconds_since(t0);
    t.events_production = o.diagnostics.events_executed;
    tr.begin_trial(static_cast<std::uint32_t>(u));
    t0 = Clock::now();
    t.mirror = run_mirror(s, tr);
    t.wall_traced_s = seconds_since(t0);
    if (!o.ok()) {
      correct = false;
      ++failed;
      std::printf("check %s: unit %zu production trial failed: %s\n", name, u,
                  o.diagnostics.message.c_str());
    }
    trials.push_back(t);
  }
  std::uint64_t mismatches = 0;
  for (const TrialTrace& t : trials) {
    if (t.mirror.events != t.events_production) {
      ++mismatches;
      std::printf("check %s: unit %zu mirror events %llu != production %llu\n",
                  name, t.unit, static_cast<unsigned long long>(t.mirror.events),
                  static_cast<unsigned long long>(t.events_production));
    }
  }
  if (mismatches > 0) correct = false;
  failed += mismatches;

  const double cubic_ns = replay_cc_ns(CcKind::kCubic, opts.seed,
                                       opts.smoke ? 1'000'000 : 10'000'000);
  const double bbr_ns = replay_cc_ns(CcKind::kBbr, opts.seed,
                                     opts.smoke ? 1'000'000 : 10'000'000);
  const ModelTimes model = time_models();

  // Aggregate the mirror spans; withheld (zero) when any trial mismatched.
  MirrorResult sum;
  double wall_prod = 0.0;
  double wall_traced = 0.0;
  for (const TrialTrace& t : trials) {
    sum.events += t.mirror.events;
    sum.packets_sent += t.mirror.packets_sent;
    sum.link_drops += t.mirror.link_drops;
    sum.retransmits += t.mirror.retransmits;
    sum.rtos += t.mirror.rtos;
    sum.impair_offered += t.mirror.impair_offered;
    sum.impair_dropped += t.mirror.impair_dropped;
    sum.queue_occupancy_frac += t.mirror.queue_occupancy_frac /
                                static_cast<double>(trials.size());
    wall_prod += t.wall_production_s;
    wall_traced += t.wall_traced_s;
  }
  double spans = 0.0;
  for (int k = kRunUntil; k < kCalibrate; ++k) {
    spans += static_cast<double>(tr.totals(static_cast<Span>(k)).calls);
  }
  const TimerCost cost = in_place_cost(timer, wall_traced - wall_prod, spans);
  const bool keep = mismatches == 0;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto calls = [&](Span k) {
    return keep ? static_cast<double>(tr.totals(k).calls) : 0.0;
  };
  const auto self_per_call = [&](Span k) {
    return keep ? ratio(self_ns(tr.totals(k), cost), calls(k)) : 0.0;
  };
  double attributed_ns = 0.0;
  for (int k = kRunUntil; k < kCalibrate; ++k) {
    attributed_ns += self_ns(tr.totals(static_cast<Span>(k)), cost);
  }
  const auto events = static_cast<double>(sum.events);
  const double ns_per_event = keep ? ratio(attributed_ns, events) : 0.0;
  std::printf("info %s: %zu traced trials, mirror events %s production; "
              "%.1f ns per span removed (%.1f in a tight loop); self times "
              "sum to %.1f%% of the production trials' wall time\n",
              name, trials.size(), keep ? "==" : "!=", cost.outer_ns,
              timer.outer_ns, 100.0 * ratio(attributed_ns, wall_prod * 1e9));
  for (int k = kRunUntil; k < kCalibrate; ++k) {
    const auto s = static_cast<Span>(k);
    std::printf("info %s: %-24s %12.0f calls %8.1f ns/call self %6.1f%%\n",
                name, kSpanNames[k], calls(s), self_per_call(s),
                100.0 * ratio(self_ns(tr.totals(s), cost), attributed_ns));
  }

  double trials_per_point = 0.0;
  double records = 0.0;
  double log_bytes = 0.0;
  std::vector<double> point_s;
  for (const NePoint& p : ne) {
    trials_per_point += static_cast<double>(p.trials) /
                        static_cast<double>(ne.size());
    records += static_cast<double>(p.cells);
    log_bytes += static_cast<double>(p.log_bytes);
    point_s.push_back(p.find_s + p.region_s);
  }
  const ProcStats proc = proc_stats();
  const std::vector<Metric> metrics = {
      {"sim.events", keep ? events : 0.0, "count"},
      {"sim.events_per_packet",
       keep ? ratio(events, static_cast<double>(sum.packets_sent)) : 0.0,
       "ratio"},
      {"sim.ns_per_event", ns_per_event, "ns"},
      {"sim.self_ns_per_event",
       keep ? ratio(self_ns(tr.totals(kRunUntil), cost), events) : 0.0, "ns"},
      {"net.link.send.calls", calls(kLinkSend), "count"},
      {"net.link.send.self_ns", self_per_call(kLinkSend), "ns"},
      {"net.link.drop_frac",
       keep ? ratio(static_cast<double>(sum.link_drops), calls(kLinkSend))
            : 0.0,
       "ratio"},
      {"net.queue.occupancy_frac", keep ? sum.queue_occupancy_frac : 0.0,
       "ratio"},
      {"net.delay.send.calls", calls(kDelaySend), "count"},
      {"net.delay.send.self_ns", self_per_call(kDelaySend), "ns"},
      {"net.impair.send.calls", calls(kImpairSend), "count"},
      {"net.impair.send.self_share",
       keep ? ratio(self_ns(tr.totals(kImpairSend), cost), attributed_ns)
            : 0.0,
       "ratio"},
      {"net.impair.drop_frac",
       keep ? ratio(static_cast<double>(sum.impair_dropped),
                    static_cast<double>(sum.impair_offered))
            : 0.0,
       "ratio"},
      {"flow.sender.on_ack.calls", calls(kSenderOnAck), "count"},
      {"flow.sender.on_ack.self_ns", self_per_call(kSenderOnAck), "ns"},
      {"flow.retx_frac",
       keep ? ratio(static_cast<double>(sum.retransmits),
                    static_cast<double>(sum.packets_sent))
            : 0.0,
       "ratio"},
      {"flow.rtos", keep ? static_cast<double>(sum.rtos) : 0.0, "count"},
      {"flow.receiver.on_packet.calls", calls(kReceiverOnPacket), "count"},
      {"flow.receiver.on_packet.self_ns", self_per_call(kReceiverOnPacket),
       "ns"},
      {"cc.cubic.on_ack_ns", cubic_ns, "ns"},
      {"cc.bbr.on_ack_ns", bbr_ns, "ns"},
      {"exp.nash.trials_per_point", trials_per_point, "count"},
      {"exp.nash.point_max_over_p50",
       point_s.empty() ? 0.0
                       : ratio(*std::max_element(point_s.begin(), point_s.end()),
                               percentile(point_s, 0.5)),
       "ratio"},
      {"exp.parallel.busy_frac",
       ratio(pool.busy_seconds, pool.wall_seconds * pool.max_workers), "ratio"},
      {"exp.parallel.cpu_per_busy", ratio(pool.cpu_seconds, pool.busy_seconds),
       "ratio"},
      {"exp.parallel.steals", static_cast<double>(pool.steals), "count"},
      {"exp.checkpoint.records", records, "count"},
      {"exp.checkpoint.bytes", log_bytes, "bytes"},
      {"model.two_flow_prediction_us", model.two_flow_us, "us"},
      {"model.predict_nash_region_us", model.region_us, "us"},
      {"proc.cpu_s", proc.cpu_s, "s"},
      {"proc.invol_ctx_switches", static_cast<double>(proc.invol_ctx_switches),
       "count"},
      {"trace.timer_ns", timer.inner_ns, "ns"},
      {"trace.overhead_frac", ratio(wall_traced - wall_prod, wall_prod),
       "ratio"},
      {"trace.mismatches", static_cast<double>(mismatches), "count"},
  };

  // Everything the run measured, for reading without a re-run.
  const std::string path = dir + "/trace.jsonl";
  std::ofstream f{path, std::ios::trunc};
  for (const TrialTrace& t : trials) {
    JsonlRecord r;
    r.set("type", "trial");
    r.set("unit", static_cast<std::uint64_t>(t.unit));
    r.set("events_production", t.events_production);
    r.set("events_mirror", t.mirror.events);
    r.set("wall_production_s", t.wall_production_s);
    r.set("wall_traced_s", t.wall_traced_s);
    f << r.encode() << '\n';
  }
  for (int k = kRunUntil; k < kCalibrate; ++k) {
    const SpanTotals& t = tr.totals(static_cast<Span>(k));
    JsonlRecord r;
    r.set("type", "layer");
    r.set("name", kSpanNames[k]);
    r.set("calls", t.calls);
    r.set("incl_ns", t.incl_ns);
    r.set("self_ns", self_ns(t, cost));
    f << r.encode() << '\n';
  }
  for (std::size_t u = 0; u < ne.size(); ++u) {
    JsonlRecord r;
    r.set("type", "ne_point");
    r.set("unit", static_cast<std::uint64_t>(u));
    r.set("k", ne[u].k < 0 ? std::uint64_t{0} : static_cast<std::uint64_t>(ne[u].k));
    r.set("exp.find_ne_crossing_s", ne[u].find_s);
    r.set("model.predict_nash_region_s", ne[u].region_s);
    r.set("cells", ne[u].cells);
    r.set("trials", ne[u].trials);
    f << r.encode() << '\n';
  }
  const std::vector<SpanRecord>& samples = tr.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SpanRecord& s = samples[i];
    JsonlRecord r;
    r.set("type", "span");
    r.set("id", static_cast<std::uint64_t>(i));
    r.set("unit", static_cast<std::uint64_t>(s.unit));
    r.set("name", kSpanNames[s.kind]);
    r.set("start_ns", static_cast<std::uint64_t>(s.start_ns));
    r.set("end_ns", static_cast<std::uint64_t>(s.end_ns));
    if (s.parent >= 0) r.set("parent", static_cast<std::uint64_t>(s.parent));
    r.set("flow", static_cast<std::uint64_t>(s.flow));
    r.set("seq", s.seq);
    f << r.encode() << '\n';
  }
  if (!f) throw std::runtime_error{"cannot write " + path};
  std::printf("info %s: trace written to %s\n", name, path.c_str());

  print_metrics(w, metrics);
  std::printf("%s\n", result_json(correct, trials.size() + ne.size(), failed,
                                  metrics)
                          .c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace
}  // namespace bbrnash::e2e

int main(int argc, char** argv) {
  using namespace bbrnash::e2e;
  try {
    Options opts = parse_options(argc, argv);
    if (opts.workloads.empty()) {
      if (!opts.smoke) {
        std::fprintf(stderr, "bbrnash_e2e_trace: give --workload or --smoke\n");
        return 2;
      }
      opts.workloads.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
    }
    bool ok = true;
    for (const Workload w : opts.workloads) ok = trace_workload(w, opts) && ok;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bbrnash_e2e_trace: %s\n", e.what());
    return 2;
  }
}
