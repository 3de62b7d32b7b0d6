// e2e_bench: runs one end-to-end workload and prints one JSON object with
// its metrics and correctness outcome. bench/e2e/run.py is the user-facing
// runner; it builds this binary, runs each workload in its own process and
// selects the metrics BENCHMARK.json names.
//
//   e2e_bench --workload sim_paper|sim_control|rt_open|net_open
//             [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//             [--expect-digest HEX]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "e2e.h"

namespace tailguard::e2e {
namespace {

bool is_sim_workload(std::string_view name) {
  return name == "sim_paper" || name == "sim_control";
}

bool is_live_workload(std::string_view name) {
  return name == "rt_open" || name == "net_open";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "sim_paper|sim_control|rt_open|net_open [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] [--expect-digest HEX]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (!(o.seconds > 0.0 && o.seconds <= 600.0)) return false;
    } else if (flag == "--trace") {
      o.trace = std::string_view(value) == "1";
      if (!o.trace && std::string_view(value) != "0") return false;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return is_sim_workload(o.workload) || is_live_workload(o.workload);
}

}  // namespace

}  // namespace tailguard::e2e

int main(int argc, char** argv) {
  using namespace tailguard::e2e;
  RunOptions options;
  if (!parse(argc, argv, options)) return usage("bad arguments");

  Report report;
  TraceLog trace(now_ns());
  TraceLog* trace_ptr = options.trace ? &trace : nullptr;
  try {
    if (is_sim_workload(options.workload))
      run_sim_workload(options, report, trace_ptr);
    else
      run_live_workload(options, report, trace_ptr);
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }

  if (trace_ptr != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string path =
        options.out_dir + "/trace_" + options.workload + ".jsonl";
    if (!trace.write(path)) report.fail("cannot write " + path);
  }
  std::printf("%s\n", report.to_json(options.workload).c_str());
  return report.correct() ? 0 : 1;
}
