// cycada_fleet: hosts N independent iOS app sessions in one process and
// drives them concurrently (docs/SESSIONS.md).
//
//   cycada_fleet [--sessions N] [--frames M] [--test NAME]
//                [--replay file.cyt] [--paced] [--verify] [--keep]
//
// Each worker thread creates a core::Session, binds to it, registers an
// iOS persona with the session's own kernel, and runs the PassMark
// workload against a port whose whole stack — linker, EGL wrapper
// replicas, GPU device, compositor — is that session's private facet set.
// An optional .cyt trace (golden corpus) replays inside every session as
// extra load before the measured frames, paced with --paced.
//
// --verify gates the run: every session's final screen must hash
// byte-identical (FNV-1a 64) to a reference render in the default session,
// no session may error, every session must tear down (live count back to
// the default only), and the cross-session leak evidence must stay zero.
// --keep skips session destruction (leak-diagnosis aid; fails --verify).
//
// The run emits fleet.* counters (aggregate throughput, p50/p99 frame
// latency) as cycada-bench/v1 JSON, CYCADA_BENCH_JSON honored
// (docs/BENCHMARKING.md). Exits 0 on success, 1 on verification failure,
// 2 on usage/load errors.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/impersonation.h"
#include "core/replay.h"
#include "core/session.h"
#include "glport/system_config.h"
#include "kernel/kernel.h"
#include "passmark/passmark.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/image.h"

namespace {

using namespace cycada;

struct FleetOptions {
  int sessions = 8;
  int frames = 8;
  std::string test;  // empty = first PassMark spec
  std::string replay_path;
  bool paced = false;
  bool verify = false;
  bool keep = false;
};

struct WorkerResult {
  bool ok = false;
  std::string error;
  std::uint64_t primitives = 0;
  std::uint64_t screen_hash = 0;
  std::uint64_t replay_calls = 0;
  std::vector<std::int64_t> frame_ns;
};

// One app run: init a 128x128 iOS port in the *current* session, warm up,
// then render `frames` measured frames one at a time (per-frame latency is
// the fleet's p99 input). The same sequence renders the reference, so the
// hashes compare byte-for-byte.
bool run_app(const FleetOptions& options, std::string_view test,
             WorkerResult& out) {
  auto port = glport::make_ios_port();
  const Status init = port->init(128, 128, 1);
  if (!init.is_ok()) {
    out.error = "port init: " + init.to_string();
    return false;
  }
  passmark::PassMark passmark(*port);
  if (!passmark.run(test, 1).is_ok()) {  // warm-up (texture/mesh setup)
    out.error = "warm-up frame failed";
    return false;
  }
  for (int frame = 0; frame < options.frames; ++frame) {
    const std::int64_t start = now_ns();
    auto primitives = passmark.run(test, 1);
    if (!primitives.is_ok()) {
      out.error = "frame " + std::to_string(frame) + ": " +
                  primitives.status().to_string();
      return false;
    }
    out.frame_ns.push_back(now_ns() - start);
    out.primitives += *primitives;
  }
  const Image screen = port->screen();
  if (screen.empty()) {
    out.error = "empty final screen";
    return false;
  }
  out.screen_hash = fnv1a_hash(screen);
  return true;
}

// Everything a fleet member does inside its session binding. Split out so
// the scope (and with it the port, contexts, TLS) unwinds before the
// session is destroyed.
void run_session_body(const FleetOptions& options, std::string_view test,
                      const trace::ParsedTrace* trace, core::Session& session,
                      WorkerResult& out) {
  core::SessionScope scope(session);
  kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
  core::GraphicsTlsTracker::instance().install();
  if (trace != nullptr) {
    core::ReplayOptions replay;
    replay.paced = options.paced;
    auto stats = core::replay_trace(*trace, replay);
    if (!stats.is_ok()) {
      out.error = "replay: " + stats.status().to_string();
      return;
    }
    out.replay_calls = stats->calls;
  }
  out.ok = run_app(options, test, out);
}

int usage() {
  std::fprintf(stderr,
               "usage: cycada_fleet [--sessions N] [--frames M] "
               "[--test NAME] [--replay file.cyt] [--paced] [--verify] "
               "[--keep]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FleetOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      options.sessions = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      options.frames = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--test") == 0 && i + 1 < argc) {
      options.test = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      options.replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--paced") == 0) {
      options.paced = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      options.verify = true;
    } else if (std::strcmp(argv[i], "--keep") == 0) {
      options.keep = true;
    } else {
      return usage();
    }
  }
  if (options.sessions < 1 || options.frames < 1) return usage();

  trace::ParsedTrace trace;
  bool have_trace = false;
  if (!options.replay_path.empty()) {
    auto parsed = trace::read_cyt(options.replay_path);
    if (!parsed.is_ok()) {
      std::fprintf(stderr, "cycada_fleet: %s: %s\n",
                   options.replay_path.c_str(),
                   parsed.status().to_string().c_str());
      return 2;
    }
    trace = std::move(*parsed);
    have_trace = true;
  }

  // Process-global setup runs exactly once, in the default session; fleet
  // sessions never call apply_system_config (it resets cross-session
  // infrastructure like the shared dispatch table and metrics).
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);

  const auto& specs = passmark::test_specs();
  std::string test = options.test.empty() ? std::string(specs.front().name)
                                          : options.test;
  bool known = false;
  for (const auto& spec : specs) known = known || spec.name == test;
  if (!known) {
    std::fprintf(stderr, "cycada_fleet: unknown PassMark test '%s'\n",
                 test.c_str());
    return 2;
  }

  // Reference render in the default session: the byte-correctness oracle
  // every fleet session is compared against.
  WorkerResult reference;
  if (!run_app(options, test, reference)) {
    std::fprintf(stderr, "cycada_fleet: reference render failed: %s\n",
                 reference.error.c_str());
    return 2;
  }

  core::SessionRegistry& registry = core::SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();

  std::vector<WorkerResult> results(
      static_cast<std::size_t>(options.sessions));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options.sessions));
  const std::int64_t wall_start_ns = now_ns();
  for (int i = 0; i < options.sessions; ++i) {
    workers.emplace_back([&, i] {
      WorkerResult& out = results[static_cast<std::size_t>(i)];
      auto session = registry.create("fleet-" + std::to_string(i));
      if (!session.is_ok()) {
        out.error = "session create: " + session.status().to_string();
        return;
      }
      run_session_body(options, test, have_trace ? &trace : nullptr,
                       **session, out);
      if (!options.keep) registry.destroy(*session);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const std::int64_t wall_ns = now_ns() - wall_start_ns;

  // Aggregate: every session's per-frame latencies into one distribution.
  std::vector<std::int64_t> latencies;
  std::uint64_t frames_total = 0;
  std::uint64_t primitives_total = 0;
  std::uint64_t replay_calls_total = 0;
  int errored = 0;
  int hash_mismatches = 0;
  for (int i = 0; i < options.sessions; ++i) {
    const WorkerResult& r = results[static_cast<std::size_t>(i)];
    if (!r.ok) {
      ++errored;
      std::fprintf(stderr, "cycada_fleet: session fleet-%d FAILED: %s\n", i,
                   r.error.c_str());
      continue;
    }
    if (r.screen_hash != reference.screen_hash) {
      ++hash_mismatches;
      std::fprintf(stderr,
                   "cycada_fleet: session fleet-%d screen hash %016llx != "
                   "reference %016llx\n",
                   i, static_cast<unsigned long long>(r.screen_hash),
                   static_cast<unsigned long long>(reference.screen_hash));
    }
    frames_total += r.frame_ns.size();
    primitives_total += r.primitives;
    replay_calls_total += r.replay_calls;
    latencies.insert(latencies.end(), r.frame_ns.begin(), r.frame_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) -> std::int64_t {
    if (latencies.empty()) return 0;
    const std::size_t index = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
    return latencies[index];
  };
  const std::int64_t p50_ns = percentile(0.50);
  const std::int64_t p99_ns = percentile(0.99);
  const std::int64_t worst_ns = latencies.empty() ? 0 : latencies.back();
  const double fps = wall_ns > 0 ? static_cast<double>(frames_total) * 1e9 /
                                       static_cast<double>(wall_ns)
                                 : 0.0;
  const std::size_t live_after = registry.live_count();
  std::uint64_t cross_leaks = 0;
  for (const auto& leak : registry.cross_leak_snapshot()) {
    cross_leaks += leak.count;
  }

  std::printf("cycada_fleet: %d session(s) x %d frame(s) of '%s'%s\n",
              options.sessions, options.frames, test.c_str(),
              have_trace ? " (+trace replay load)" : "");
  std::printf(
      "  %llu frame(s) in %.3f ms: %.1f frames/s aggregate, "
      "%llu primitive(s)\n",
      static_cast<unsigned long long>(frames_total),
      static_cast<double>(wall_ns) / 1e6, fps,
      static_cast<unsigned long long>(primitives_total));
  std::printf("  frame latency p50 %.3f ms, p99 %.3f ms, worst %.3f ms\n",
              static_cast<double>(p50_ns) / 1e6,
              static_cast<double>(p99_ns) / 1e6,
              static_cast<double>(worst_ns) / 1e6);
  if (have_trace) {
    std::printf("  %llu replayed call(s) across the fleet\n",
                static_cast<unsigned long long>(replay_calls_total));
  }
  std::printf(
      "  sessions: %llu created / %llu destroyed total, %zu -> %zu live, "
      "%llu cross-leak(s)\n",
      static_cast<unsigned long long>(registry.created_total()),
      static_cast<unsigned long long>(registry.destroyed_total()),
      live_before, live_after, static_cast<unsigned long long>(cross_leaks));

  trace::MetricsSnapshot doc;
  auto put = [&doc](const char* name, std::uint64_t value) {
    doc.counters.push_back({name, value});
  };
  put("fleet.sessions", static_cast<std::uint64_t>(options.sessions));
  put("fleet.frames", frames_total);
  put("fleet.wall_ns", static_cast<std::uint64_t>(wall_ns));
  put("fleet.frames_per_sec_x1000", static_cast<std::uint64_t>(fps * 1000.0));
  put("fleet.primitives", primitives_total);
  put("fleet.frame_p50_ns", static_cast<std::uint64_t>(p50_ns));
  put("fleet.frame_p99_ns", static_cast<std::uint64_t>(p99_ns));
  put("fleet.frame_worst_ns", static_cast<std::uint64_t>(worst_ns));
  put("fleet.errors", static_cast<std::uint64_t>(errored));
  put("fleet.hash_mismatches", static_cast<std::uint64_t>(hash_mismatches));
  put("fleet.cross_leaks", cross_leaks);
  if (have_trace) put("fleet.replay_calls", replay_calls_total);
  trace::emit_bench_json(std::cout, doc.to_json());

  if (options.verify) {
    const bool leaked = !options.keep && live_after != live_before;
    const bool pass = errored == 0 && hash_mismatches == 0 && !leaked &&
                      cross_leaks == 0;
    std::printf(
        "cycada_fleet: verify %s (%d errored, %d hash mismatch(es), "
        "%s, %llu cross-leak(s))\n",
        pass ? "PASS" : "FAIL", errored, hash_mismatches,
        leaked ? "sessions leaked" : "sessions torn down",
        static_cast<unsigned long long>(cross_leaks));
    return pass ? 0 : 1;
  }
  return errored == 0 ? 0 : 1;
}
