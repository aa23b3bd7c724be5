// Micro benchmarks (google-benchmark): cost of the analytical solves and
// throughput of the discrete-event simulator core.
#include <benchmark/benchmark.h>

#include "exp/scenario_runner.hpp"
#include "model/mishra_model.hpp"
#include "model/nash.hpp"
#include "model/ware_model.hpp"
#include "sim/event_queue.hpp"

namespace bbrnash {
namespace {

void BM_TwoFlowModelSolve(benchmark::State& state) {
  const NetworkParams net = make_params(100.0, 40.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_flow_prediction(net));
  }
}
BENCHMARK(BM_TwoFlowModelSolve);

void BM_WareModelSolve(benchmark::State& state) {
  const NetworkParams net = make_params(100.0, 40.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ware_prediction(net));
  }
}
BENCHMARK(BM_WareModelSolve);

void BM_NashRegionPredict(benchmark::State& state) {
  const NetworkParams net = make_params(100.0, 40.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_nash_region(net, 50));
  }
}
BENCHMARK(BM_NashRegionPredict);

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(static_cast<TimeNs>((i * 7919) % 100000),
                 [&fired] { ++fired; });
    }
    TimeNs clock = 0;
    while (q.run_one(kTimeInf, clock)) {
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1024)->Arg(16384);

// End-to-end simulator throughput: simulated-packet events per second for
// a 2-flow CUBIC/BBR contest.
void BM_SimulatorOneSecond(benchmark::State& state) {
  for (auto _ : state) {
    const NetworkParams net = make_params(50.0, 20.0, 3.0);
    Scenario s = make_mix_scenario(net, 1, 1);
    s.duration = from_sec(2);
    s.warmup = from_sec(1);
    benchmark::DoNotOptimize(run_scenario(s));
  }
}
BENCHMARK(BM_SimulatorOneSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bbrnash

BENCHMARK_MAIN();
