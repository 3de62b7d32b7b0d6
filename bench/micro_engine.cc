// Microbenchmarks of the two execution engines: discrete-event simulator
// throughput (tasks simulated per second) and threaded-runtime query
// round-trip throughput.
#include <benchmark/benchmark.h>

#include "runtime/service.h"
#include "sim/experiment.h"
#include "workloads/tailbench.h"

namespace tailguard {
namespace {

void BM_SimulatorThroughput(benchmark::State& state, Policy policy) {
  SimConfig cfg;
  cfg.num_servers = 100;
  cfg.policy = policy;
  cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0}};
  cfg.fanout =
      std::make_shared<CategoricalFanout>(CategoricalFanout::paper_mix());
  cfg.service_time = make_service_time_model(TailbenchApp::kMasstree);
  cfg.num_queries = 20000;
  set_load(cfg, 0.5);
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    cfg.seed++;
    const SimResult r = run_simulation(cfg);
    tasks += r.tasks_admitted;
    benchmark::DoNotOptimize(r.end_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_SimulatorThroughput, fifo, Policy::kFifo)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorThroughput, tailguard, Policy::kTfEdf)
    ->Unit(benchmark::kMillisecond);

void BM_RuntimeQueryRoundTrip(benchmark::State& state) {
  ServiceOptions opt;
  opt.num_workers = 4;
  opt.policy = Policy::kTfEdf;
  opt.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  TailGuardService svc(opt);
  for (auto _ : state) {
    std::vector<ServiceTaskSpec> tasks(4);
    for (auto& t : tasks) t.work = [] {};
    benchmark::DoNotOptimize(svc.submit(0, std::move(tasks)).get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// The main thread blocks in get(), so its CPU time misses most of the round
// trip: rate it on the wall clock.
BENCHMARK(BM_RuntimeQueryRoundTrip)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace tailguard

BENCHMARK_MAIN();
