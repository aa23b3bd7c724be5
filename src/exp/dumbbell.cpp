#include "exp/dumbbell.hpp"

#include <algorithm>

#include "net/aqm.hpp"

namespace bbrnash {

namespace {

/// Seed of a flow's impairment stream, mixed statelessly rather than drawn
/// from the scenario's root Rng: a pristine scenario must stay
/// byte-identical to one where the impairment layer does not exist at all.
std::uint64_t impairment_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64_mix(seed + stream * kSplitMix64Gamma);
}

/// The scenario's BDP at its longest base RTT, in packets, rounded up.
std::size_t bdp_packets(const Scenario& scenario) {
  TimeNs rtt = 0;
  for (const FlowSpec& f : scenario.flows) rtt = std::max(rtt, f.base_rtt);
  return static_cast<std::size_t>(bdp_bytes(scenario.capacity, rtt) /
                                  (scenario.mss + kHeaderBytes)) +
         1;
}

}  // namespace

Dumbbell::Dumbbell(Simulator& sim, const Scenario& scenario,
                   ConservationAudit* audit, FlightRecorder* recorder)
    : sim_(sim),
      n_(static_cast<std::uint32_t>(scenario.flows.size())),
      bdp_packets_(bdp_packets(scenario)),
      buffer_packets_(static_cast<std::size_t>(
          scenario.buffer_bytes / (scenario.mss + kHeaderBytes))),
      link_(sim, scenario.capacity, scenario.buffer_bytes, n_) {
  Rng rng{scenario.seed};
  switch (scenario.aqm) {
    case AqmKind::kDropTail:
      break;
    case AqmKind::kRed: {
      RedConfig red;
      red.seed = scenario.seed ^ 0x9E3779B97F4A7C15ULL;
      link_.set_aqm(std::make_unique<RedPolicy>(red));
      break;
    }
    case AqmKind::kCoDel:
      link_.set_aqm(std::make_unique<CoDelPolicy>());
      break;
  }

  // Bottleneck rate schedule (link flaps / capacity steps).
  for (const RateChange& c : scenario.capacity_schedule) {
    if (recorder != nullptr) {
      sim.schedule_at(c.at, [this, recorder, rate = c.rate] {
        recorder->note(sim_.now(), FlightEventKind::kRateChange, 0,
                       static_cast<std::uint64_t>(rate));
        link_.set_rate(rate);
      });
    } else {
      sim.schedule_at(c.at, [this, rate = c.rate] { link_.set_rate(rate); });
    }
  }

  senders_.reserve(n_);
  receivers_.reserve(n_);
  fwd_lines_.reserve(n_);
  rev_lines_.reserve(n_);
  data_stages_.resize(n_);
  ack_stages_.resize(n_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    const ImpairmentConfig& data_cfg = scenario.flows[i].impairments
                                           ? *scenario.flows[i].impairments
                                           : scenario.impairments;
    if (data_cfg.any()) {
      data_stages_[i] = std::make_unique<ImpairmentStage<Packet>>(
          sim, data_cfg, impairment_seed(scenario.seed, 2ULL * i + 1));
      data_stages_[i]->set_sink([this](const Packet& pkt) { link_.send(pkt); });
    }
    if (scenario.ack_impairments.any()) {
      ack_stages_[i] = std::make_unique<ImpairmentStage<Ack>>(
          sim, scenario.ack_impairments,
          impairment_seed(scenario.seed, 2ULL * i + 2));
    }
  }

  access_.resize(n_);
  const TimeNs default_jitter =
      serialization_time(scenario.mss + kHeaderBytes, scenario.capacity);
  for (std::uint32_t i = 0; i < n_; ++i) {
    access_[i] = AccessPath{&sim, &link_, data_stages_[i].get(), audit,
                            recorder, i, rng.fork(),
                            std::max<TimeNs>(1, scenario.access_jitter >= 0
                                                    ? scenario.access_jitter
                                                    : default_jitter),
                            sim.private_lane()};
  }

  for (std::uint32_t i = 0; i < n_; ++i) {
    const FlowSpec& spec = scenario.flows[i];
    const TimeNs one_way = spec.base_rtt / 2;

    receivers_.push_back(std::make_unique<FlowReceiver>(i));
    fwd_lines_.push_back(std::make_unique<ForwardPath>(sim, one_way));
    rev_lines_.push_back(
        std::make_unique<ReversePath>(sim, spec.base_rtt - one_way));

    CcConfig cc_cfg;
    cc_cfg.mss = scenario.mss;
    cc_cfg.initial_cwnd = 10 * scenario.mss;
    cc_cfg.seed = rng.next_u64();
    cc_cfg.bbr_cwnd_gain = scenario.bbr_cwnd_gain;
    SenderConfig snd_cfg;
    snd_cfg.mss = scenario.mss;
    snd_cfg.transfer_bytes = spec.transfer_bytes;
    senders_.push_back(std::make_unique<FlowSender>(
        sim, i, snd_cfg, make_cc_variant(spec.cc, cc_cfg),
        AccessEntry{&access_[i]}));

    ReversePath* rev = rev_lines_[i].get();
    fwd_lines_[i]->set_sink(PacketArrival{receivers_[i].get(), recorder, &sim});
    receivers_[i]->set_ack_sink(AckDeparture{ack_stages_[i].get(), rev});
    if (ack_stages_[i] != nullptr) {
      ack_stages_[i]->set_sink([rev](const Ack& ack) { rev->send(ack); });
    }
    rev->set_sink(AckArrival{senders_[i].get()});
  }

  link_.set_sink(LinkExit{&sim, fwd_lines_.data()});
  if (recorder != nullptr) {
    link_.set_drop_hook([&sim, recorder](const Packet& pkt) {
      recorder->note(sim.now(), FlightEventKind::kQueueDrop, pkt.flow,
                     pkt.seq);
    });
  }

  // Group instrumentation: aggregate CUBIC occupancy drives the model's
  // b_cmin / b_cmax validation, aggregate non-CUBIC occupancy is b_b.
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (scenario.flows[i].cc == CcKind::kCubic) cubic_flows_.push_back(i);
  }
  if (!cubic_flows_.empty()) link_.queue().track_group(cubic_flows_);

  // Start flows: explicit start times win; otherwise a deterministic
  // jitter decorrelates the slow starts.
  for (std::uint32_t i = 0; i < n_; ++i) {
    const TimeNs jitter =
        scenario.start_jitter > 0
            ? static_cast<TimeNs>(rng.next_below(
                  static_cast<std::uint64_t>(scenario.start_jitter)))
            : 0;
    const TimeNs at = scenario.flows[i].start_at != kTimeNone
                          ? scenario.flows[i].start_at
                          : jitter;
    senders_[i]->start(at);
  }
}

void Dumbbell::reserve() {
  // Each hint covers, with a fifth or more to spare, the largest span its
  // pool reached after warm-up over seeds 1-8 of every zero-allocation
  // test and simcore case (DESIGN.md §6a), in units of the aggregate
  // window w. One flow's spans scale with w, not with its share of it.
  const std::size_t w = bdp_packets_ + buffer_packets_;
  sim_.reserve_events(w + 4096);
  link_.queue().reserve(buffer_packets_);
  for (std::uint32_t i = 0; i < n_; ++i) {
    sim_.reserve_lane(access_[i].lane, 2 * bdp_packets_ + 64);
    senders_[i]->reserve_windows(4 * w, 5 * w / 2, 5 * w / 4);
    receivers_[i]->reserve_reorder(4 * w);
  }
}

void Dumbbell::begin_measurement() {
  link_.queue().begin_measurement(sim_.now());
  for (auto& s : senders_) s->begin_measurement();
}

}  // namespace bbrnash
