// tailguard_served — the TailGuard task-server daemon.
//
// Listens on a TCP port for a remote dispatcher (net/dispatcher.h), queues
// incoming tasks under the configured policy, executes them, and streams
// TaskDone completions back. One process of this daemon is one task server
// of the paper's Fig. 2 testbed.
//
//   ./tools/tailguard_served --port 7170 --policy tailguard --executors 1
//
// Runs until SIGINT/SIGTERM. `--port 0` picks an ephemeral port (printed on
// startup), which is how the loopback tests and benches deploy fleets.
#include <csignal>
#include <cstdio>
#include <ctime>
#include <iostream>

#include "common/check.h"
#include "common/flags.h"
#include "net/task_server.h"
#include "tool_util.h"

using namespace tailguard;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  std::int64_t port = 7170;
  std::string policy_name = "tailguard";
  std::size_t num_classes = 2;
  std::size_t executors = 1;
  double gossip_ms = 0.0;
  bool once = false;

  FlagParser flags(
      "tailguard_served: TCP task-server daemon for the TailGuard remote "
      "dispatcher");
  flags.add_int("port", &port, "TCP port to listen on (0 = ephemeral)");
  flags.add_string("policy", &policy_name,
                   "queuing policy: fifo|priq|tedf|tailguard");
  flags.add_size("classes", &num_classes, "number of service classes");
  flags.add_size("executors", &executors, "execution threads");
  flags.add_double("gossip-ms", &gossip_ms,
                   "delta-gossip period in ms (0 = disabled: a dispatcher "
                   "gets its own TaskDones and, at connect, the rejoin "
                   "backfill)");
  flags.add_bool("once", &once,
                 "start, print the port, and exit immediately (smoke tests)");
  if (!flags.parse(argc, argv, std::cout, std::cerr))
    return flags.help_requested() ? 0 : 1;

  const auto policy = tools::parse_policy(policy_name);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 1;
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "port %lld out of range\n",
                 static_cast<long long>(port));
    return 1;
  }

  net::TaskServerOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.policy = *policy;
  options.num_classes = num_classes;
  options.num_executors = executors;
  options.gossip_interval_ms = gossip_ms;

  try {
    net::TaskServer server(std::move(options));
    std::printf("tailguard_served listening on 127.0.0.1:%u (policy %s, "
                "%zu executor%s)\n",
                server.port(), to_string(*policy), executors,
                executors == 1 ? "" : "s");
    std::fflush(stdout);
    if (once) return 0;

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop) {
      // The network and executor threads do the work; this thread only waits
      // for a shutdown signal.
      struct timespec ts = {0, 100 * 1000 * 1000};
      nanosleep(&ts, nullptr);
    }
    std::printf("tailguard_served: %llu tasks executed, %llu missed "
                "deadline; shutting down\n",
                static_cast<unsigned long long>(server.tasks_executed()),
                static_cast<unsigned long long>(server.tasks_missed_deadline()));
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
