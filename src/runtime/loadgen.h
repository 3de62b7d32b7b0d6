// Open-loop load generator for the threaded TailGuard runtime.
//
// Drives a TailGuardService with Poisson (or Pareto) arrivals at a target
// wall-clock rate — the runtime analogue of the simulator's arrival process
// — and reports per-class latency percentiles, the achieved rate and the
// deadline-miss ratio. Used by the runtime testbed bench.
#pragma once

#include <functional>
#include <vector>

#include "dist/arrival.h"
#include "runtime/service.h"

namespace tailguard {

struct LoadGenOptions {
  /// Mean arrival rate in queries per second (wall clock).
  double rate_qps = 100.0;
  std::size_t num_queries = 1000;
  /// Queries in the leading warmup fraction are executed but not measured.
  double warmup_fraction = 0.1;
  bool pareto_arrivals = false;
  double pareto_shape = 1.5;
  std::uint64_t seed = 1;
};

/// Produces the next query to submit. Called on the load-generator thread.
struct LoadGenQuery {
  ClassId cls = 0;
  std::vector<ServiceTaskSpec> tasks;
};
using QueryFactory = std::function<LoadGenQuery(Rng&)>;

struct ClassLoadStats {
  ClassId cls = 0;
  std::size_t queries = 0;
  TimeMs p50_ms = 0.0;
  TimeMs p95_ms = 0.0;
  TimeMs p99_ms = 0.0;
  TimeMs mean_ms = 0.0;
};

struct LoadGenReport {
  std::vector<ClassLoadStats> per_class;
  std::size_t submitted = 0;
  std::size_t rejected = 0;
  double elapsed_s = 0.0;
  double achieved_qps = 0.0;
  double deadline_miss_ratio = 0.0;

  const ClassLoadStats* find_class(ClassId cls) const;
};

/// Submits `options.num_queries` queries at the target rate and blocks
/// until every response arrives.
LoadGenReport run_load(TailGuardService& service, const LoadGenOptions& options,
                       const QueryFactory& factory);

}  // namespace tailguard
