// Networked testbed: dispatch overhead of the TCP runtime (src/net/) vs the
// in-process runtime on the same machine.
//
// Two measurements:
//   1. Round-trip overhead — serial fanout-1 queries with zero service time
//      on both paths; the measured query latency is entirely dispatch cost
//      (deadline computation + wire serde + loopback TCP + poll loops) for
//      the remote path, and deadline computation + queue handoff for the
//      in-process path. The difference is what going distributed costs.
//   2. Loaded tails — a paced open-loop run with fanouts 2 and 4 across 4
//      task servers, checking the remote path still lands per-class p99
//      under the same SLOs the in-process runtime meets.
#include <algorithm>
#include <array>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "runtime/service.h"

using namespace tailguard;

namespace {

struct LatencyStats {
  std::size_t samples = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// p99 is reported only with at least 10 samples beyond it.
  bool p99_valid() const { return samples >= 1000; }
};

LatencyStats stats_of(std::vector<double> v) {
  LatencyStats s;
  s.samples = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  for (double x : v) s.mean += x;
  s.mean /= static_cast<double>(v.size());
  s.p50 = v[v.size() / 2];
  s.p99 = v[static_cast<std::size_t>(0.99 * static_cast<double>(v.size() - 1))];
  return s;
}

/// Serial fanout-1 queries with zero service time: latency == dispatch cost.
template <typename SubmitFn>
LatencyStats round_trip(std::size_t queries, SubmitFn&& submit) {
  std::vector<double> lat;
  lat.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    lat.push_back(submit().get().latency_ms);
  }
  return stats_of(std::move(lat));
}

}  // namespace

int main(int argc, char** argv) {
  tailguard::bench::init(argc, argv);
  bench::title("Networked testbed",
               "remote dispatcher + TCP task servers vs the in-process "
               "runtime (dispatch overhead and loaded tails)");
  bench::JsonReport report("net_testbed");

  constexpr std::size_t kServers = 4;
  const std::vector<ClassSpec> classes = {{.slo_ms = 60.0, .percentile = 99.0},
                                          {.slo_ms = 120.0, .percentile = 99.0}};
  const std::size_t rt_queries = bench::queries(1000);

  // --- shared offline profile -------------------------------------------
  Rng profile_rng(17);
  std::vector<double> profile(3000);
  for (auto& x : profile) x = 0.5 + profile_rng.uniform();

  // --- in-process baseline ----------------------------------------------
  ServiceOptions svc_opt;
  svc_opt.num_workers = kServers;
  svc_opt.policy = Policy::kTfEdf;
  svc_opt.classes = classes;
  TailGuardService service(svc_opt);
  service.seed_profile(profile);

  const LatencyStats local = round_trip(rt_queries, [&] {
    return service.submit(0, std::vector<ServiceTaskSpec>(1));
  });

  // --- networked fleet on loopback --------------------------------------
  std::vector<std::unique_ptr<net::TaskServer>> fleet;
  for (std::size_t i = 0; i < kServers; ++i) {
    net::TaskServerOptions opt;
    opt.policy = Policy::kTfEdf;
    opt.num_classes = classes.size();
    fleet.push_back(std::make_unique<net::TaskServer>(opt));
  }
  net::DispatcherOptions d_opt;
  for (const auto& s : fleet) d_opt.servers.push_back({"127.0.0.1", s->port()});
  d_opt.policy = Policy::kTfEdf;
  d_opt.classes = classes;
  net::RemoteDispatcher dispatcher(d_opt);
  if (!dispatcher.wait_for_servers(kServers, 5000.0)) {
    std::printf("FATAL: task servers did not come up\n");
    return 1;
  }
  dispatcher.seed_profile(profile);

  const LatencyStats remote = round_trip(rt_queries, [&] {
    return dispatcher.submit(0, std::vector<net::RemoteTaskSpec>(1));
  });

  bench::section("round-trip dispatch overhead (fanout 1, zero service)");
  std::printf("%-12s %10s %10s %10s %8s\n", "path", "mean", "p50", "p99",
              "samples");
  const auto print_path = [](const char* path, const LatencyStats& s) {
    char p99[32] = "-";
    if (s.p99_valid()) std::snprintf(p99, sizeof(p99), "%.3f ms", s.p99);
    std::printf("%-12s %8.3f ms %8.3f ms %11s %8zu\n", path, s.mean, s.p50,
                p99, s.samples);
  };
  print_path("in-process", local);
  print_path("remote-tcp", remote);
  std::printf("overhead: +%.3f ms mean, +%.3f ms p50 (%zu queries per path)\n",
              remote.mean - local.mean, remote.p50 - local.p50, rt_queries);
  const auto row = [&](const char* measurement, const LatencyStats& s) {
    auto& r = report.row()
                  .add("measurement", measurement)
                  .add("samples", static_cast<double>(s.samples))
                  .add("mean_ms", s.mean)
                  .add("p50_ms", s.p50);
    if (s.p99_valid()) r.add("p99_ms", s.p99);
  };
  row("round_trip_in_process", local);
  row("round_trip_remote_tcp", remote);
  // Fanout-1 queries, so per-query overhead == per-task overhead.
  auto& overhead = report.row()
                       .add("measurement", "dispatch_overhead_per_task")
                       .add("samples", static_cast<double>(rt_queries))
                       .add("mean_ms", remote.mean - local.mean)
                       .add("p50_ms", remote.p50 - local.p50);
  if (local.p99_valid() && remote.p99_valid())
    overhead.add("p99_ms", remote.p99 - local.p99);

  // --- loaded tails ------------------------------------------------------
  const std::size_t loaded_queries = bench::queries(400);
  bench::section("loaded tails (fanout 2 / 4, ~1 ms tasks, paced open loop)");

  const auto run_loaded = [&](auto&& submit_query) {
    Rng rng(7);
    std::vector<std::pair<ClassId, std::future<QueryResult>>> futures;
    for (std::size_t q = 0; q < loaded_queries; ++q) {
      const ClassId cls = q % 3 == 0 ? 1 : 0;
      std::vector<double> service_ms(cls == 0 ? 2 : 4);
      for (auto& s : service_ms) s = 0.5 + rng.uniform();
      futures.emplace_back(cls, submit_query(cls, service_ms));
      std::this_thread::sleep_for(std::chrono::microseconds(1500));
    }
    std::vector<double> by_class[2];
    std::size_t failed = 0;
    for (auto& [cls, fut] : futures) {
      QueryResult r = fut.get();
      by_class[cls].push_back(r.latency_ms);
      failed += r.tasks_failed;
    }
    return std::make_pair(
        std::array<LatencyStats, 2>{stats_of(std::move(by_class[0])),
                                    stats_of(std::move(by_class[1]))},
        failed);
  };

  const auto [local_loaded, local_failed] =
      run_loaded([&](ClassId cls, const std::vector<double>& service_ms) {
        std::vector<ServiceTaskSpec> tasks(service_ms.size());
        for (std::size_t i = 0; i < service_ms.size(); ++i)
          tasks[i].simulated_service_ms = service_ms[i];
        return service.submit(cls, std::move(tasks));
      });
  const auto [remote_loaded, remote_failed] =
      run_loaded([&](ClassId cls, const std::vector<double>& service_ms) {
        std::vector<net::RemoteTaskSpec> tasks(service_ms.size());
        for (std::size_t i = 0; i < service_ms.size(); ++i)
          tasks[i].simulated_service_ms = service_ms[i];
        return dispatcher.submit(cls, std::move(tasks));
      });

  std::printf("%-12s %14s %14s %10s\n", "path", "I p99 (SLO 60)",
              "II p99 (120)", "failed");
  std::printf("%-12s %11.1f ms %11.1f ms %10zu  SLOs met: %s/%s\n",
              "in-process", local_loaded[0].p99, local_loaded[1].p99,
              local_failed, bench::check_mark(local_loaded[0].p99 <= 60.0),
              bench::check_mark(local_loaded[1].p99 <= 120.0));
  std::printf("%-12s %11.1f ms %11.1f ms %10zu  SLOs met: %s/%s\n",
              "remote-tcp", remote_loaded[0].p99, remote_loaded[1].p99,
              remote_failed, bench::check_mark(remote_loaded[0].p99 <= 60.0),
              bench::check_mark(remote_loaded[1].p99 <= 120.0));
  report.row()
      .add("measurement", "loaded_in_process")
      .add("p99_class1_ms", local_loaded[0].p99)
      .add("p99_class2_ms", local_loaded[1].p99)
      .add("tasks_failed", static_cast<double>(local_failed));
  report.row()
      .add("measurement", "loaded_remote_tcp")
      .add("p99_class1_ms", remote_loaded[0].p99)
      .add("p99_class2_ms", remote_loaded[1].p99)
      .add("tasks_failed", static_cast<double>(remote_failed));

  bench::note(
      "expected shape: loopback TCP adds well under a millisecond of "
      "round-trip overhead per query, and the remote path meets the same "
      "per-class p99 SLOs as the in-process runtime at this load; absolute "
      "numbers vary with machine and scheduler noise");
  return 0;
}
