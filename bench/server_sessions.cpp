// server_sessions: high-session-count storm benchmark for the tuning server.
//
// Drives the event-loop server the way a saturated multi-tenant deployment
// does (bench/server_load.hpp run_storm): N concurrently live sessions, each
// a short search written as groups of pipelined REPORT+FETCH lines, sessions
// churning until a lifetime total, a cycle of TENANT names, and a deliberate
// fraction of slow readers exercising the pending-output backpressure path.
// The CI bench-smoke job runs this at 512 sessions; the 10k-session
// experiment documented in EXPERIMENTS.md is this binary at --sessions 10000.
//
// Results go to stdout and BENCH_server_sessions.json (ah-bench-report/1):
// evals/s, sessions/s, and p50/p95/p99 latency per group of lines. All numbers
// are client-observed on purpose — the server's own backpressure counters
// live on the STATUS board (see obs/status.hpp) and are asserted by the
// admission tests, so this benchmark cannot drift when that schema does.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/bench_report.hpp"
#include "server_load.hpp"

namespace bench = harmony::bench;
namespace obs = harmony::obs;

namespace {

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--sessions K] [--total-sessions T] [--evals M] [--batch B]\n"
      "          [--window W] [--reactors N] [--drivers D] [--tenants J]\n"
      "          [--slow-every S] [--idle-ms MS] [--quota Q] [--reps R]\n"
      "          [--out DIR]\n\n"
      "Storm benchmark: K concurrent short sessions (churning to T lifetime\n"
      "sessions) x M evaluations against the event-loop server, B\n"
      "REPORT+FETCH lines per write, J tenants, every S-th session a slow\n"
      "reader. Writes BENCH_server_sessions.json into --out. The soft fd\n"
      "limit is raised best-effort; K is clamped when it cannot be.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::StormOptions storm;
  storm.sessions = 1024;
  storm.total_sessions = 0;  // = sessions unless overridden
  storm.slow_every = 50;
  int reps = 3;
  std::string out_dir = obs::bench_out_dir();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--sessions" && (v = next()) != nullptr) {
      storm.sessions = std::max(1, std::atoi(v));
    } else if (arg == "--total-sessions" && (v = next()) != nullptr) {
      storm.total_sessions = std::max(0, std::atoi(v));
    } else if (arg == "--evals" && (v = next()) != nullptr) {
      storm.evals = std::max(1, std::atoi(v));
    } else if (arg == "--batch" && (v = next()) != nullptr) {
      storm.batch = std::max(1, std::atoi(v));
    } else if (arg == "--window" && (v = next()) != nullptr) {
      storm.window = std::max(1, std::atoi(v));
    } else if (arg == "--reactors" && (v = next()) != nullptr) {
      storm.reactors = std::max(1, std::atoi(v));
    } else if (arg == "--drivers" && (v = next()) != nullptr) {
      storm.drivers = std::max(1, std::atoi(v));
    } else if (arg == "--tenants" && (v = next()) != nullptr) {
      storm.tenants = std::max(0, std::atoi(v));
    } else if (arg == "--slow-every" && (v = next()) != nullptr) {
      storm.slow_every = std::max(0, std::atoi(v));
    } else if (arg == "--idle-ms" && (v = next()) != nullptr) {
      storm.idle_timeout_ms = std::atoll(v);
    } else if (arg == "--quota" && (v = next()) != nullptr) {
      storm.tenant_quota = std::max(0, std::atoi(v));
    } else if (arg == "--reps" && (v = next()) != nullptr) {
      reps = std::max(1, std::atoi(v));
    } else if (arg == "--out" && (v = next()) != nullptr) {
      out_dir = v;
    } else {
      return usage(argv[0]);
    }
  }

  std::printf("== server_sessions: %d concurrent sessions (total %d) x %d "
              "evals, batch %d, %d tenants, slow every %d ==\n",
              storm.sessions,
              storm.total_sessions > 0 ? storm.total_sessions : storm.sessions,
              storm.evals, storm.batch, storm.tenants, storm.slow_every);

  const auto best = bench::best_of(reps, [&] { return bench::run_storm(storm); });
  std::printf("storm: %llu evals, %d sessions in %.3f s -> %.0f evals/s, "
              "%.1f sessions/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
              static_cast<unsigned long long>(best.evals),
              best.sessions_completed, best.wall_s, best.evals_per_s(),
              best.sessions_per_s(), best.p50_ms, best.p95_ms, best.p99_ms);

  obs::BenchReport report;
  report.name = "server_sessions";
  report.evaluations = static_cast<int>(best.evals);
  report.wall_s = best.wall_s;
  report.metrics["sessions"] = storm.sessions;
  report.metrics["sessions_total"] = best.sessions_completed;
  report.metrics["batch"] = storm.batch;
  report.metrics["tenants"] = storm.tenants;
  report.metrics["evals_per_s"] = best.evals_per_s();
  report.metrics["sessions_per_s"] = best.sessions_per_s();
  report.metrics["p50_ms"] = best.p50_ms;
  report.metrics["p95_ms"] = best.p95_ms;
  report.metrics["p99_ms"] = best.p99_ms;
  report.metrics["p99_p50_ratio"] =
      best.p50_ms > 0.0 ? best.p99_ms / best.p50_ms : 0.0;
  if (const auto path = report.write_file(out_dir)) {
    std::printf("wrote %s\n", path->c_str());
  } else {
    std::fprintf(stderr, "error: could not write report into '%s'\n",
                 out_dir.c_str());
    return 2;
  }
  return 0;
}
