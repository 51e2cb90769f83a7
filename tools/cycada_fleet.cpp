// cycada_fleet: hosts N independent iOS app sessions in one process and
// drives them concurrently (docs/SESSIONS.md).
//
//   cycada_fleet [--sessions N] [--frames M] [--replay file.cyt]
//                [--chaos-ms MS] [--verify]
//
// Each worker thread creates a core::Session, binds to it, registers an
// iOS persona with the session's own kernel, and runs the first PassMark
// test against a port whose whole stack — linker, EGL wrapper replicas,
// GPU device, compositor — is that session's private facet set. An
// optional .cyt trace (golden corpus) replays inside every session as
// extra load before the measured frames.
//
// --verify gates the run: every session's final screen must hash
// byte-identical (FNV-1a 64) to a reference render in the default session,
// no session may error, every session must tear down (live count back to
// the default only), and the cross-session leak evidence must stay zero.
//
// --chaos-ms MS is the chaos soak (docs/ROBUSTNESS.md §6): session fleet-0
// runs one-frame app lifetimes, each ending in one GCD GL call, under
// seeded stall and error faults on every catalog probe for MS ms while the
// other sessions re-run their app.
// fleet-0 must then recover to rung 0 with no leaked persona or lock;
// --verify also holds every neighbour lifetime to the reference hash and
// every frame in any session to 5 s.
//
// The run emits fleet.* counters (aggregate throughput, p50/p99 frame
// latency), or soak.* counters under --chaos-ms, as cycada-bench/v1 JSON,
// CYCADA_BENCH_JSON honored (docs/BENCHMARKING.md). Exits 0 on success, 1
// on verification failure, 2 on usage/load errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.h"
#include "core/impersonation.h"
#include "core/replay.h"
#include "core/session.h"
#include "dispatch/dispatch.h"
#include "glport/system_config.h"
#include "ios_gl/gles.h"
#include "kernel/kernel.h"
#include "passmark/passmark.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/image.h"
#include "util/rng.h"
#include "util/watchdog.h"

namespace {

using namespace cycada;

constexpr std::uint64_t kChaosSeed = 42;
constexpr std::int64_t kFrameEnvelopeNs = 5'000'000'000;
constexpr int kMaxRecoveryFrames = 64;

struct FleetOptions {
  int sessions = 8;
  int frames = 8;
  std::string replay_path;
  std::int64_t chaos_ms = 0;  // 0 = a clean fleet
  bool verify = false;
};

struct WorkerResult {
  bool ok = false;
  std::string error;
  std::uint64_t primitives = 0;
  std::vector<std::uint64_t> screen_hashes;  // one per app lifetime
  std::uint64_t replay_calls = 0;
  std::vector<std::int64_t> frame_ns;  // measured frames
  std::int64_t worst_frame_ns = 0;     // any frame, warm-up included
};

// fleet-0's part of a chaos soak.
struct SoakResult {
  std::uint64_t frames_run = 0;
  std::uint64_t frames_errored = 0;
  std::int64_t worst_frame_ns = 0;
  int recovery_frames = 0;
  trace::MetricsSnapshot injected;  // taken at the end of the injected phase
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
  const std::int64_t warm_start = now_ns();
  if (!passmark.run(test, 1).is_ok()) {  // warm-up (texture/mesh setup)
    out.error = "warm-up frame failed";
    return false;
  }
  out.worst_frame_ns = std::max(out.worst_frame_ns, now_ns() - warm_start);
  for (int frame = 0; frame < options.frames; ++frame) {
    const std::int64_t start = now_ns();
    auto primitives = passmark.run(test, 1);
    if (!primitives.is_ok()) {
      out.error = "frame " + std::to_string(frame) + ": " +
                  primitives.status().to_string();
      return false;
    }
    out.frame_ns.push_back(now_ns() - start);
    out.worst_frame_ns = std::max(out.worst_frame_ns, out.frame_ns.back());
    out.primitives += *primitives;
  }
  const Image screen = port->screen();
  if (screen.empty()) {
    out.error = "empty final screen";
    return false;
  }
  out.screen_hashes.push_back(fnv1a_hash(screen));
  return true;
}

// Everything a fleet member does inside its session binding. Split out so
// the scope (and with it the port, contexts, TLS) unwinds before the
// session is destroyed. Under --chaos-ms the app re-runs until
// `deadline_ns`; otherwise it runs once.
void run_session_body(const FleetOptions& options, std::string_view test,
                      const trace::ParsedTrace* trace,
                      std::int64_t deadline_ns, core::Session& session,
                      WorkerResult& out) {
  core::SessionScope scope(session);
  kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
  core::GraphicsTlsTracker::instance().install();
  if (trace != nullptr) {
    auto stats = core::replay_trace(*trace, core::ReplayOptions{});
    if (!stats.is_ok()) {
      out.error = "replay: " + stats.status().to_string();
      return;
    }
    out.replay_calls = stats->calls;
  }
  do {
    out.ok = run_app(options, test, out);
  } while (out.ok && now_ns() < deadline_ns);
}

// One chaos-session app lifetime: a fresh port, one frame of `test`, and
// one GCD job that makes one GL call with the lifetime's context, so the
// dispatch.impersonate probe sits on its path. The call is a query: the
// screen keeps its bytes. Returns false when an injected fault made the
// lifetime fail.
bool chaos_lifetime(std::string_view test) {
  auto port = glport::make_ios_port();
  if (!port->init(128, 128, 1).is_ok()) return false;
  passmark::PassMark passmark(*port);
  if (!passmark.run(test, 1).is_ok()) return false;
  dispatch::DispatchQueue queue("com.cycada.chaos");
  queue.sync([] { (void)ios_gl::glIsEnabled(glcore::GL_BLEND); });
  return true;
}

// The calling thread's ladder, as the soak prints it.
std::string rung_text() {
  util::Watchdog& watchdog = util::Watchdog::instance();
  char text[48];
  std::snprintf(text, sizeof text, "[g=%d e=%d]",
                watchdog.rung(util::WatchdogDomain::kGpuPhase),
                watchdog.rung(util::WatchdogDomain::kEgl));
  return text;
}

bool all_rungs_clear() {
  for (int d = 0; d < static_cast<int>(util::WatchdogDomain::kCount); ++d) {
    if (util::Watchdog::instance().degraded(
            static_cast<util::WatchdogDomain>(d))) {
      return false;
    }
  }
  return true;
}

// fleet-0's injected phase. Every catalog probe is filtered to this
// session, calibrated, armed from a seeded mix, and driven with one-frame
// app lifetimes rotating through the seven tests until `deadline_ns`.
// Leaves every probe disarmed; the filter stays until the neighbours join.
void run_chaos_body(std::int64_t deadline_ns, core::Session& session,
                    SoakResult& out) {
  core::SessionScope scope(session);
  kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
  core::GraphicsTlsTracker::instance().install();
  util::FaultRegistry& faults = util::FaultRegistry::instance();
  const std::vector<std::string>& catalog = util::FaultRegistry::catalog();
  const auto& specs = passmark::test_specs();
  util::FaultRegistry::set_session_filter(session.id());

  // Calibration frame: probes differ in traversal rate by three orders of
  // magnitude (kernel.set_persona runs hundreds of times per frame where
  // egl.create_context runs once), so a fixed stall cadence would either
  // starve the cold probes or bury every frame in injected sleep. A 0-ppm
  // probability trigger counts traversals without ever firing.
  for (const std::string& name : catalog) {
    faults.point(name).arm_probability(0, 1);
  }
  (void)chaos_lifetime(specs.front().name);
  std::vector<std::uint64_t> per_frame;
  for (const std::string& name : catalog) {
    per_frame.push_back(faults.point(name).hits());
  }
  faults.reset();

  // The seeded mix: every probe stalls 10-90 ms (straddling the soak's
  // 50 ms watchdog budget, so some stalls trip the ladder and some stay
  // sub-budget jitter) about twice per frame, and half the probes also
  // fail with 2% probability. Stalls feed the ladder through overdue
  // scopes, errors through the retry/fallback paths.
  Rng rng(kChaosSeed);
  std::printf(
      "soak: fleet-0 (session %u) under injection, seed %llu, "
      "watchdog_budget_ms=%lld\n",
      session.id(), static_cast<unsigned long long>(kChaosSeed),
      static_cast<long long>(util::Watchdog::instance().budget_override_ms()));
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    util::FaultPoint& point = faults.point(catalog[i]);
    const std::uint64_t ms = 10 + rng.next_u64() % 81;
    const std::uint64_t every =
        per_frame[i] > 2 ? per_frame[i] / 2 : 1 + rng.next_u64() % 2;
    point.arm_stall(ms, every);
    const bool fails = (rng.next_u64() & 1) != 0;
    if (fails) point.arm_probability(20000, rng.next_u64());
    std::printf("  arm %-22s stall:%llu:%llu%s  (%llu/frame)\n",
                catalog[i].c_str(), static_cast<unsigned long long>(ms),
                static_cast<unsigned long long>(every),
                fails ? " + prob:20000" : "",
                static_cast<unsigned long long>(per_frame[i]));
  }

  std::size_t spec_index = 0;
  while (now_ns() < deadline_ns) {
    const std::int64_t start = now_ns();
    if (!chaos_lifetime(specs[spec_index++ % specs.size()].name)) {
      ++out.frames_errored;
    }
    ++out.frames_run;
    out.worst_frame_ns = std::max(out.worst_frame_ns, now_ns() - start);
  }
  out.injected = trace::MetricsRegistry::instance().snapshot();
  std::printf(
      "soak: %llu frames under injection (%llu errored, worst %lld ms), "
      "rungs now %s\n",
      static_cast<unsigned long long>(out.frames_run),
      static_cast<unsigned long long>(out.frames_errored),
      static_cast<long long>(out.worst_frame_ns / 1'000'000),
      rung_text().c_str());
  faults.disarm_all();
}

// After the injected phase, with every neighbour joined and the probes
// disarmed: bound to fleet-0, clean frames must bring all four rungs back
// to 0, one more frame must not force serial raster, and fleet-0's kernel
// must hold no leaked persona crossing (nor the process a held lock).
bool recover_chaos_session(core::Session& session, SoakResult& soak) {
  core::SessionScope scope(session);
  kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
  core::GraphicsTlsTracker::instance().install();
  const auto& specs = passmark::test_specs();
  while (!all_rungs_clear() && soak.recovery_frames < kMaxRecoveryFrames) {
    (void)chaos_lifetime(specs[soak.recovery_frames % specs.size()].name);
    ++soak.recovery_frames;
  }
  if (!all_rungs_clear()) {
    std::fprintf(stderr,
                 "soak: FAIL ladder did not return to rung 0 after %d clean "
                 "frames %s\n",
                 kMaxRecoveryFrames, rung_text().c_str());
    return false;
  }
  std::printf("soak: ladder clear after %d clean frames\n",
              soak.recovery_frames);

  trace::Counter& serial_forced =
      trace::MetricsRegistry::instance().counter("watchdog.serial_forced");
  const std::uint64_t serial_before = serial_forced.value();
  if (!chaos_lifetime(specs.front().name)) {
    std::fprintf(stderr, "soak: FAIL clean post-recovery frame errored\n");
    return false;
  }
  if (serial_forced.value() != serial_before) {
    std::fprintf(stderr,
                 "soak: FAIL pipeline still serialized after recovery "
                 "(watchdog.serial_forced moved %llu -> %llu)\n",
                 static_cast<unsigned long long>(serial_before),
                 static_cast<unsigned long long>(serial_forced.value()));
    return false;
  }

  analyze::Report report;
  analyze::check_fault_safety(report);
  if (!report.clean()) {
    report.print(std::cerr);
    std::fprintf(stderr, "soak: FAIL fault-safety findings after soak\n");
    return false;
  }
  return true;
}

// The soak's bench document: the injected phase's watchdog and fault
// metrics plus fleet-0's liveness stats, all under soak.* names. It has no
// fleet.* keys, so it merges beside a clean fleet run's document.
trace::MetricsSnapshot soak_document(const SoakResult& soak) {
  trace::MetricsSnapshot doc;
  for (const auto& counter : soak.injected.counters) {
    if (counter.value == 0 || (counter.name.rfind("watchdog.", 0) != 0 &&
                               counter.name.rfind("fault.", 0) != 0)) {
      continue;
    }
    doc.counters.push_back({"soak." + counter.name, counter.value});
  }
  for (const auto& histogram : soak.injected.histograms) {
    if (histogram.count == 0 || histogram.name.rfind("watchdog.", 0) != 0) {
      continue;
    }
    trace::HistogramSnapshot renamed = histogram;
    renamed.name = "soak." + histogram.name;
    doc.histograms.push_back(std::move(renamed));
  }
  doc.counters.push_back({"soak.frames_run", soak.frames_run});
  doc.counters.push_back({"soak.frames_errored", soak.frames_errored});
  doc.counters.push_back(
      {"soak.worst_frame_ms",
       static_cast<std::uint64_t>(soak.worst_frame_ns / 1'000'000)});
  doc.counters.push_back({"soak.recovery_frames",
                          static_cast<std::uint64_t>(soak.recovery_frames)});
  return doc;
}

int usage() {
  std::fprintf(stderr,
               "usage: cycada_fleet [--sessions N] [--frames M] "
               "[--replay file.cyt] [--chaos-ms MS] [--verify]\n");
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
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      options.replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos-ms") == 0 && i + 1 < argc) {
      options.chaos_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      options.verify = true;
    } else {
      return usage();
    }
  }
  if (options.sessions < 1 || options.frames < 1 || options.chaos_ms < 0) {
    return usage();
  }
  const bool chaos = options.chaos_ms > 0;

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
  const std::string_view test = passmark::test_specs().front().name;

  // Reference render in the default session: the byte-correctness oracle
  // every fleet session is compared against.
  WorkerResult reference;
  if (!run_app(options, test, reference)) {
    std::fprintf(stderr, "cycada_fleet: reference render failed: %s\n",
                 reference.error.c_str());
    return 2;
  }
  const std::uint64_t reference_hash = reference.screen_hashes.front();

  core::SessionRegistry& registry = core::SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();

  std::vector<WorkerResult> results(
      static_cast<std::size_t>(options.sessions));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options.sessions));
  core::Session* chaos_session = nullptr;
  SoakResult soak;
  const std::int64_t wall_start_ns = now_ns();
  const std::int64_t deadline_ns =
      chaos ? wall_start_ns + options.chaos_ms * 1'000'000 : 0;
  for (int i = 0; i < options.sessions; ++i) {
    workers.emplace_back([&, i] {
      WorkerResult& out = results[static_cast<std::size_t>(i)];
      auto session = registry.create("fleet-" + std::to_string(i));
      if (!session.is_ok()) {
        out.error = "session create: " + session.status().to_string();
        return;
      }
      if (chaos && i == 0) {
        // Recovered and destroyed on the main thread once every neighbour
        // has joined.
        chaos_session = *session;
        out.ok = true;
        run_chaos_body(deadline_ns, **session, soak);
        return;
      }
      run_session_body(options, test, have_trace ? &trace : nullptr,
                       deadline_ns, **session, out);
      registry.destroy(*session);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const std::int64_t wall_ns = now_ns() - wall_start_ns;
  bool recovered = true;
  if (chaos) {
    // Cleared only now: an armed probe is never seen unfiltered by a
    // neighbour still running.
    util::FaultRegistry::set_session_filter(-1);
    recovered = chaos_session != nullptr &&
                recover_chaos_session(*chaos_session, soak);
    registry.destroy(chaos_session);
  }

  // Aggregate: every session's per-frame latencies into one distribution.
  std::vector<std::int64_t> latencies;
  std::uint64_t frames_total = 0;
  std::uint64_t primitives_total = 0;
  std::uint64_t replay_calls_total = 0;
  std::uint64_t lifetimes = 0;
  std::int64_t worst_any_ns = soak.worst_frame_ns;
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
    for (const std::uint64_t hash : r.screen_hashes) {
      if (hash == reference_hash) continue;
      ++hash_mismatches;
      std::fprintf(stderr,
                   "cycada_fleet: session fleet-%d screen hash %016llx != "
                   "reference %016llx\n",
                   i, static_cast<unsigned long long>(hash),
                   static_cast<unsigned long long>(reference_hash));
    }
    lifetimes += r.screen_hashes.size();
    worst_any_ns = std::max(worst_any_ns, r.worst_frame_ns);
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

  std::printf("cycada_fleet: %d session(s) x %d frame(s) of '%.*s'%s\n",
              options.sessions, options.frames,
              static_cast<int>(test.size()), test.data(),
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
  if (chaos) {
    std::printf(
        "  fleet-0 under chaos for %lld ms; %llu neighbour lifetime(s); "
        "worst frame in any session %.3f ms\n",
        static_cast<long long>(options.chaos_ms),
        static_cast<unsigned long long>(lifetimes),
        static_cast<double>(worst_any_ns) / 1e6);
  }
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

  if (chaos) {
    trace::emit_bench_json(std::cout, soak_document(soak).to_json());
  } else {
    trace::MetricsSnapshot doc;
    auto put = [&doc](const char* name, std::uint64_t value) {
      doc.counters.push_back({name, value});
    };
    put("fleet.sessions", static_cast<std::uint64_t>(options.sessions));
    put("fleet.frames", frames_total);
    put("fleet.wall_ns", static_cast<std::uint64_t>(wall_ns));
    put("fleet.frames_per_sec_x1000",
        static_cast<std::uint64_t>(fps * 1000.0));
    put("fleet.primitives", primitives_total);
    put("fleet.frame_p50_ns", static_cast<std::uint64_t>(p50_ns));
    put("fleet.frame_p99_ns", static_cast<std::uint64_t>(p99_ns));
    put("fleet.frame_worst_ns", static_cast<std::uint64_t>(worst_ns));
    put("fleet.errors", static_cast<std::uint64_t>(errored));
    put("fleet.hash_mismatches", static_cast<std::uint64_t>(hash_mismatches));
    put("fleet.cross_leaks", cross_leaks);
    if (have_trace) put("fleet.replay_calls", replay_calls_total);
    trace::emit_bench_json(std::cout, doc.to_json());
  }

  if (options.verify) {
    const bool leaked = live_after != live_before;
    const bool hung = chaos && worst_any_ns > kFrameEnvelopeNs;
    const bool pass = errored == 0 && hash_mismatches == 0 && !leaked &&
                      cross_leaks == 0 && recovered && !hung;
    std::printf(
        "cycada_fleet: verify %s (%d errored, %d hash mismatch(es), "
        "%s, %llu cross-leak(s)%s%s)\n",
        pass ? "PASS" : "FAIL", errored, hash_mismatches,
        leaked ? "sessions leaked" : "sessions torn down",
        static_cast<unsigned long long>(cross_leaks),
        !chaos ? "" : recovered ? ", fleet-0 recovered" : ", fleet-0 stuck",
        !chaos ? "" : hung ? ", a frame over 5 s" : ", every frame under 5 s");
    return pass ? 0 : 1;
  }
  return errored == 0 && recovered ? 0 : 1;
}
