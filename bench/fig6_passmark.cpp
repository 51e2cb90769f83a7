// Regenerates Figure 6 of the paper: PassMark 2D/3D graphics performance,
// normalized to the Android app on stock Android (higher is better).
//
// Two extra modes support the tile-parallel frame pipeline
// (docs/PIPELINE.md, docs/BENCHMARKING.md):
//   CYCADA_PASSMARK_HASH=1   print an FNV-1a hash of the final screen for
//                            every (config, test) pair instead of rates.
//                            CI runs this at CYCADA_GPU_WORKERS=1 and =4
//                            and diffs the output byte-for-byte: the tiled
//                            rasterizer must be deterministic.
//   CYCADA_PASSMARK_SWEEP=1  run the workload at 1/2/4/8 tile workers on a
//                            512x512 surface (an 8x8 tile grid) and emit
//                            the per-stage pipeline metrics as bench JSON
//                            (BENCH_pr9.json via scripts/bench_baseline.sh).
//   CYCADA_PASSMARK_SOAK_MS=N  chaos soak (docs/ROBUSTNESS.md): arm a
//                            seeded mix of error and stall faults on every
//                            catalog probe, loop the workload for N ms of
//                            wall clock asserting per-frame liveness, then
//                            disarm and require the watchdog's recovery
//                            ladder to climb back to full-parallel with
//                            zero persona/lock leaks. CYCADA_CHAOS_SEED
//                            (default 42) reseeds the fault mix.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "glport/system_config.h"
#include "gpu/pipeline.h"
#include "passmark/passmark.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/image.h"
#include "util/watchdog.h"

namespace {

using cycada::glport::SystemConfig;

int frames_for(std::string_view test) {
  // Simple 3D maximizes frame rate (present-bound); Complex 3D is GPU-bound.
  if (test == "Simple 3D") return 24;
  if (test == "Complex 3D") return 4;
  if (test == "Image Filters") return 6;
  return 8;
}

double run_rate(SystemConfig config, std::string_view test, int width = 128,
                int height = 128) {
  cycada::glport::apply_system_config(config);
  auto port = cycada::glport::make_gl_port(config);
  if (!port->init(width, height, 1).is_ok()) return -1;
  cycada::passmark::PassMark passmark(*port);
  // Warm-up frame (texture/mesh setup).
  if (!passmark.run(test, 1).is_ok()) return -1;
  const int frames = frames_for(test);
  const auto start = cycada::now_ns();
  auto primitives = passmark.run(test, frames);
  const auto elapsed = cycada::now_ns() - start;
  if (!primitives.is_ok() || elapsed <= 0) return -1;
  return static_cast<double>(*primitives) * 1e9 /
         static_cast<double>(elapsed);
}

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

// CYCADA_PASSMARK_HASH: every (config, test) pair renders the same seeded
// workload, so the screen hash is a pure function of the raster pipeline.
// The output is diffed across CYCADA_GPU_WORKERS settings by scripts/ci.sh.
int run_hash_mode() {
  const std::vector<std::pair<const char*, SystemConfig>> configs = {
      {"cycada-ios", SystemConfig::kCycadaIos},
      {"cycada-android", SystemConfig::kCycadaAndroid},
      {"ios", SystemConfig::kIos},
      {"android", SystemConfig::kAndroid},
  };
  std::printf("# fig6 framebuffer hashes (FNV-1a 64 of the final screen)\n");
  for (const auto& [label, config] : configs) {
    for (const auto& spec : cycada::passmark::test_specs()) {
      cycada::glport::apply_system_config(config);
      auto port = cycada::glport::make_gl_port(config);
      if (!port->init(128, 128, 1).is_ok()) return 1;
      cycada::passmark::PassMark passmark(*port);
      if (!passmark.run(spec.name, 1 + frames_for(spec.name)).is_ok())
        return 1;
      const cycada::Image screen = port->screen();
      if (screen.empty()) return 1;
      std::printf("hash %-16s %-22s %016llx\n", label,
                  std::string(spec.name).c_str(),
                  static_cast<unsigned long long>(fnv1a_hash(screen)));
    }
  }
  return 0;
}

// CYCADA_PASSMARK_SWEEP: the tile-parallel pipeline scaling run. A 512x512
// surface is an 8x8 grid of 64x64 tiles, enough work per raster phase for
// eight workers to claim and steal. apply_system_config() resets the
// metrics registry, so the config is applied once per worker count, the
// whole seven-test workload runs under it, and the pipeline.* metrics are
// snapshotted into a merged document under fig6.workersN.* names before the
// next worker count wipes them.
int run_sweep_mode() {
  auto& metrics = cycada::trace::MetricsRegistry::instance();
  auto& pool = cycada::gpu::TileWorkerPool::instance();

  std::printf(
      "fig6 worker sweep: Cycada iOS PassMark on 512x512 (8x8 tiles)\n\n");
  std::printf("%8s %14s %10s\n", "workers", "prims/sec", "speedup");
  cycada::trace::MetricsSnapshot merged;
  std::vector<std::pair<int, double>> rates;
  for (const int workers : {1, 2, 4, 8}) {
    cycada::glport::apply_system_config(SystemConfig::kCycadaIos);
    pool.set_worker_count(workers);
    std::uint64_t primitives = 0;
    const auto start = cycada::now_ns();
    for (const auto& spec : cycada::passmark::test_specs()) {
      auto port = cycada::glport::make_gl_port(SystemConfig::kCycadaIos);
      if (!port->init(512, 512, 1).is_ok()) return 1;
      cycada::passmark::PassMark passmark(*port);
      if (!passmark.run(spec.name, 1).is_ok()) return 1;  // warm-up
      const auto prims = passmark.run(spec.name, frames_for(spec.name));
      if (!prims.is_ok()) return 1;
      primitives += *prims;
    }
    const auto elapsed = cycada::now_ns() - start;
    if (elapsed <= 0) return 1;
    rates.emplace_back(workers, static_cast<double>(primitives) * 1e9 /
                                    static_cast<double>(elapsed));

    const std::string prefix = "fig6.workers" + std::to_string(workers) + ".";
    const cycada::trace::MetricsSnapshot snap = metrics.snapshot();
    for (const auto& counter : snap.counters) {
      if (counter.name.rfind("pipeline.", 0) != 0) continue;
      merged.counters.push_back({prefix + counter.name, counter.value});
    }
    for (const auto& histogram : snap.histograms) {
      if (histogram.name.rfind("pipeline.", 0) != 0) continue;
      cycada::trace::HistogramSnapshot renamed = histogram;
      renamed.name = prefix + histogram.name;
      merged.histograms.push_back(std::move(renamed));
    }
  }

  const double base_rate = rates.front().second;
  for (const auto& [workers, rate] : rates) {
    const double speedup = base_rate > 0 ? rate / base_rate : 0;
    std::printf("%8d %14.0f %9.2fx\n", workers, rate, speedup);
    const std::string prefix = "fig6.sweep.workers" + std::to_string(workers);
    merged.counters.push_back(
        {prefix + ".prims_per_sec", static_cast<std::uint64_t>(rate)});
    merged.counters.push_back({prefix + ".raster_speedup_x100",
                               static_cast<std::uint64_t>(speedup * 100)});
  }
  std::printf(
      "\nNote: wall-clock speedup needs real cores; on a single-core host "
      "the\nsweep stays ~1.00x while determinism and the per-stage "
      "histograms still hold\n(docs/BENCHMARKING.md).\n");
  cycada::trace::emit_bench_json(std::cout, merged.to_json());
  return 0;
}

// CYCADA_PASSMARK_SOAK_MS: the chaos soak gate. Unlike the deterministic
// fault matrix (which proves each rung in isolation), the soak proves
// *liveness under sustained, mixed hostility*: every catalog probe is armed
// with either an error probability or a stall, chosen by a seeded SplitMix64
// draw so a failing run replays exactly, and the PassMark workload loops for
// a fixed wall-clock budget. Three things make it a gate:
//   1. every frame must finish inside a liveness envelope (a hang, not an
//      error, is the failure class under test);
//   2. after disarming, the recovery ladder must return every domain to
//      rung 0 within a bounded number of clean frames, and a final clean
//      run must not force serial raster (full parallelism restored);
//   3. analyze::check_fault_safety must find zero persona/lock leaks.
constexpr std::int64_t kSoakFrameEnvelopeMs = 5000;
constexpr int kSoakMaxRecoveryFrames = 64;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One soak "frame": build a fresh port, run a single PassMark frame of the
// given test, tolerate injected errors. Returns false on (expected,
// injected) failure — the caller only asserts the wall-clock envelope.
bool soak_frame(std::string_view test) {
  auto port = cycada::glport::make_gl_port(SystemConfig::kCycadaIos);
  if (!port->init(128, 128, 1).is_ok()) return false;
  cycada::passmark::PassMark passmark(*port);
  return passmark.run(test, 1).is_ok();
}

bool all_rungs_clear() {
  auto& watchdog = cycada::util::Watchdog::instance();
  for (int d = 0; d < static_cast<int>(cycada::util::WatchdogDomain::kCount);
       ++d) {
    if (watchdog.rung(static_cast<cycada::util::WatchdogDomain>(d)) > 0) {
      return false;
    }
  }
  return true;
}

int run_soak_mode(std::int64_t budget_ms) {
  auto& faults = cycada::util::FaultRegistry::instance();
  auto& watchdog = cycada::util::Watchdog::instance();
  auto& metrics = cycada::trace::MetricsRegistry::instance();

  std::uint64_t seed = 42;
  if (const char* env = std::getenv("CYCADA_CHAOS_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf(
      "fig6 chaos soak: seed=%llu budget=%lld ms watchdog_budget_ms=%lld\n",
      static_cast<unsigned long long>(seed),
      static_cast<long long>(budget_ms),
      static_cast<long long>(watchdog.budget_override_ms()));

  // apply_system_config resets the metrics registry, so it runs once, up
  // front; every counter delta below is measured inside this one config.
  // The worker pool is forced to 4 so the supervised parallel phase path
  // runs even on a single-core CI host (the sweep mode does the same).
  cycada::glport::apply_system_config(SystemConfig::kCycadaIos);
  cycada::gpu::TileWorkerPool::instance().set_worker_count(4);
  faults.reset();
  watchdog.reset();

  // Calibration frame: probes differ in traversal rate by three orders of
  // magnitude (kernel.set_persona runs hundreds of times per frame where
  // egl.create_context runs once), so a fixed stall cadence would either
  // starve the cold probes or bury every frame in injected sleep — latency,
  // not the hang class under test. A 0-ppm probability trigger arms the
  // fire channel without ever firing, which makes hits() count clean-path
  // traversals; one frame of that yields each probe's per-frame rate.
  for (const std::string& name : cycada::util::FaultRegistry::catalog()) {
    faults.point(name).arm_probability(0, 1);
  }
  const auto specs = cycada::passmark::test_specs();
  (void)soak_frame(specs.front().name);
  std::map<std::string, std::uint64_t> traversals_per_frame;
  for (const std::string& name : cycada::util::FaultRegistry::catalog()) {
    traversals_per_frame[name] = faults.point(name).hits();
  }
  faults.reset();
  watchdog.reset();

  // Seeded per-probe fault mix: every catalog probe stalls 10-90 ms
  // (straddling the CI soak's 50 ms watchdog budget, so some stalls trip
  // the ladder and some stay sub-budget jitter) roughly once or twice per
  // frame, and half the probes additionally fail with 2% probability. Both
  // channels feed the ladder — stalls through overdue scopes, errors
  // through the existing retry/fallback paths — and a stalled *and* failing
  // traversal exercises the bounded forced-recovery paths.
  std::uint64_t rng = seed;
  for (const std::string& name : cycada::util::FaultRegistry::catalog()) {
    cycada::util::FaultPoint& point = faults.point(name);
    const std::uint64_t ms = 10 + splitmix64(rng) % 81;
    const std::uint64_t per_frame = traversals_per_frame[name];
    const std::uint64_t every =
        per_frame > 2 ? per_frame / 2 : 1 + splitmix64(rng) % 2;
    point.arm_stall(ms, every);
    std::uint64_t point_seed = 0;
    if (splitmix64(rng) & 1) {
      point_seed = splitmix64(rng);
      point.arm_probability(20000, point_seed);
    }
    std::printf("  arm %-22s stall:%llu:%llu%s  (%llu/frame)\n", name.c_str(),
                static_cast<unsigned long long>(ms),
                static_cast<unsigned long long>(every),
                point_seed != 0 ? " + prob:20000" : "",
                static_cast<unsigned long long>(per_frame));
  }

  const std::int64_t deadline = cycada::now_ns() + budget_ms * 1'000'000;
  std::uint64_t frames_run = 0;
  std::uint64_t frames_errored = 0;
  std::int64_t worst_frame_ns = 0;
  std::size_t spec_index = 0;
  while (cycada::now_ns() < deadline) {
    const auto& spec = specs[spec_index++ % specs.size()];
    const std::int64_t frame_start = cycada::now_ns();
    if (!soak_frame(spec.name)) ++frames_errored;
    ++frames_run;
    const std::int64_t frame_ns = cycada::now_ns() - frame_start;
    if (frame_ns > worst_frame_ns) worst_frame_ns = frame_ns;
    if (frame_ns > kSoakFrameEnvelopeMs * 1'000'000) {
      std::fprintf(stderr,
                   "soak: FAIL frame %llu (%s) took %lld ms, over the %lld "
                   "ms liveness envelope — hung frame\n",
                   static_cast<unsigned long long>(frames_run),
                   std::string(spec.name).c_str(),
                   static_cast<long long>(frame_ns / 1'000'000),
                   static_cast<long long>(kSoakFrameEnvelopeMs));
      return 1;
    }
  }
  std::printf("soak: %llu frames under injection (%llu errored, worst %lld "
              "ms), rungs now [g=%d p=%d e=%d c=%d]\n",
              static_cast<unsigned long long>(frames_run),
              static_cast<unsigned long long>(frames_errored),
              static_cast<long long>(worst_frame_ns / 1'000'000),
              watchdog.rung(cycada::util::WatchdogDomain::kGpuPhase),
              watchdog.rung(cycada::util::WatchdogDomain::kPresent),
              watchdog.rung(cycada::util::WatchdogDomain::kEgl),
              watchdog.rung(cycada::util::WatchdogDomain::kCompositor));

  // Snapshot the injected-phase watchdog counters before the recovery
  // frames dilute them.
  const cycada::trace::MetricsSnapshot injected = metrics.snapshot();

  // Disarm and let the hysteresis climb back: each clean presented frame
  // feeds note_frame(); recovery_frames() of them drop a rung. kMaxRung
  // rungs x recovery frames per rung is well inside the bound.
  faults.disarm_all();
  int recovery_frames = 0;
  while (!all_rungs_clear() && recovery_frames < kSoakMaxRecoveryFrames) {
    (void)soak_frame(specs[recovery_frames % specs.size()].name);
    ++recovery_frames;
  }
  if (!all_rungs_clear()) {
    std::fprintf(stderr,
                 "soak: FAIL ladder did not return to rung 0 after %d clean "
                 "frames [g=%d p=%d e=%d c=%d]\n",
                 kSoakMaxRecoveryFrames,
                 watchdog.rung(cycada::util::WatchdogDomain::kGpuPhase),
                 watchdog.rung(cycada::util::WatchdogDomain::kPresent),
                 watchdog.rung(cycada::util::WatchdogDomain::kEgl),
                 watchdog.rung(cycada::util::WatchdogDomain::kCompositor));
    return 1;
  }
  std::printf("soak: ladder clear after %d clean frames\n", recovery_frames);

  // Full parallelism restored: a clean run must not force serial raster.
  const std::uint64_t serial_before =
      metrics.counter("watchdog.serial_forced").value();
  if (!soak_frame(specs.front().name)) {
    std::fprintf(stderr, "soak: FAIL clean post-recovery frame errored\n");
    return 1;
  }
  const std::uint64_t serial_after =
      metrics.counter("watchdog.serial_forced").value();
  if (serial_after != serial_before) {
    std::fprintf(stderr,
                 "soak: FAIL pipeline still serialized after recovery "
                 "(watchdog.serial_forced moved %llu -> %llu)\n",
                 static_cast<unsigned long long>(serial_before),
                 static_cast<unsigned long long>(serial_after));
    return 1;
  }

  // No failure path may have leaked a persona crossing or a held lock.
  cycada::analyze::Report report;
  cycada::analyze::check_fault_safety(report);
  if (!report.clean()) {
    report.print(std::cerr);
    std::fprintf(stderr, "soak: FAIL fault-safety findings after soak\n");
    return 1;
  }

  // Bench document: the injected-phase watchdog/fault counters plus the
  // soak's own liveness stats, all under soak.* names.
  cycada::trace::MetricsSnapshot doc;
  for (const auto& counter : injected.counters) {
    if (counter.name.rfind("watchdog.", 0) != 0 &&
        counter.name.rfind("fault.", 0) != 0) {
      continue;
    }
    if (counter.value == 0) continue;
    doc.counters.push_back({"soak." + counter.name, counter.value});
  }
  for (const auto& histogram : injected.histograms) {
    if (histogram.name.rfind("watchdog.", 0) != 0 || histogram.count == 0) {
      continue;
    }
    cycada::trace::HistogramSnapshot renamed = histogram;
    renamed.name = "soak." + histogram.name;
    doc.histograms.push_back(std::move(renamed));
  }
  doc.counters.push_back({"soak.frames_run", frames_run});
  doc.counters.push_back({"soak.frames_errored", frames_errored});
  doc.counters.push_back(
      {"soak.worst_frame_ms",
       static_cast<std::uint64_t>(worst_frame_ns / 1'000'000)});
  doc.counters.push_back(
      {"soak.recovery_frames", static_cast<std::uint64_t>(recovery_frames)});
  cycada::trace::emit_bench_json(std::cout, doc.to_json());
  std::printf("soak: OK\n");
  return 0;
}

}  // namespace

int main() {
  if (env_flag("CYCADA_PASSMARK_HASH")) return run_hash_mode();
  if (env_flag("CYCADA_PASSMARK_SWEEP")) return run_sweep_mode();
  if (const char* soak = std::getenv("CYCADA_PASSMARK_SOAK_MS");
      soak != nullptr && std::atoll(soak) > 0) {
    return run_soak_mode(std::atoll(soak));
  }

  const std::vector<std::pair<const char*, SystemConfig>> configs = {
      {"Cycada iOS", SystemConfig::kCycadaIos},
      {"Cycada Android", SystemConfig::kCycadaAndroid},
      {"iOS", SystemConfig::kIos},
      {"Android", SystemConfig::kAndroid},
  };

  std::map<std::string, std::map<std::string, double>> rates;
  for (const auto& [label, config] : configs) {
    for (const auto& spec : cycada::passmark::test_specs()) {
      rates[label][std::string(spec.name)] = run_rate(config, spec.name);
    }
  }

  std::printf(
      "Figure 6: PassMark graphics performance, normalized to Android\n"
      "(higher is better)\n\n");
  std::printf("%-22s %12s %16s %8s\n", "test", "Cycada iOS", "Cycada Android",
              "iOS");
  for (const auto& spec : cycada::passmark::test_specs()) {
    const std::string name(spec.name);
    const double android = rates["Android"][name];
    std::printf("%-22s %12.2f %16.2f %8.2f\n", name.c_str(),
                rates["Cycada iOS"][name] / android,
                rates["Cycada Android"][name] / android,
                rates["iOS"][name] / android);
  }
  std::printf(
      "\nPaper shape: Cycada Android ~1x everywhere; Cycada iOS tracks iOS"
      " (worse than Android on 2D\nimage tests, competitive-or-better on"
      " complex vectors and 3D); Simple 3D shows Cycada iOS's\nEAGL present"
      " overhead most, Complex 3D least (GPU work dominates).\n");
  return 0;
}
