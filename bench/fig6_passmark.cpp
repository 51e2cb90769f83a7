// Regenerates Figure 6 of the paper: PassMark 2D/3D graphics performance,
// normalized to the Android app on stock Android (higher is better).
//
// CYCADA_PASSMARK_SWEEP=1 instead runs the tile-parallel pipeline's worker
// sweep (docs/PIPELINE.md, docs/BENCHMARKING.md): the Cycada iOS workload
// at 1/2/4/8 tile workers on a 512x512 surface (an 8x8 tile grid), each
// test timed over four times its Figure 6 frames, in five interleaved
// rounds (a round under heavy host steal is re-run, a bounded number of
// times), emitting the median speedups and the per-stage pipeline metrics
// as bench JSON (BENCH_pr10.json via scripts/bench_baseline.sh).
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "glport/system_config.h"
#include "gpu/pipeline.h"
#include "passmark/passmark.h"
#include "trace/metrics.h"
#include "util/clock.h"

namespace {

using cycada::glport::SystemConfig;

double run_rate(SystemConfig config, const cycada::passmark::TestSpec& spec) {
  cycada::glport::apply_system_config(config);
  auto port = cycada::glport::make_gl_port(config);
  if (!port->init(128, 128, 1).is_ok()) return -1;
  cycada::passmark::PassMark passmark(*port);
  // Warm-up frame (texture/mesh setup).
  if (!passmark.run(spec.name, 1).is_ok()) return -1;
  const auto start = cycada::now_ns();
  auto primitives = passmark.run(spec.name, spec.frames);
  const auto elapsed = cycada::now_ns() - start;
  if (!primitives.is_ok() || elapsed <= 0) return -1;
  return static_cast<double>(*primitives) * 1e9 /
         static_cast<double>(elapsed);
}

// CPU time the hypervisor ran something else while this machine's CPUs
// wanted to run, summed over CPUs, in seconds ("steal" in /proc/stat); -1
// where the kernel does not report it.
double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::array<long long, 8> ticks{};
  if (!(stat >> cpu) || cpu != "cpu") return -1.0;
  for (long long& tick : ticks) {
    if (!(stat >> tick)) return -1.0;
  }
  return static_cast<double>(ticks[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Each sweep sample runs this many times a test's Figure 6 frames.
constexpr int kSweepFrameScale = 4;

// The seven-test Cycada iOS workload on 512x512 at `workers` tile workers:
// primitives per second (-1 on failure) and the share of that time spent in
// the raster stage. Each test's clock starts once its port is up and its
// warm-up frame is on screen, and stops once the screen shows the last
// counted frame (port->screen() waits out its present fence), so the rate
// and the raster share cover the counted frames alone.
// apply_system_config() resets the metrics registry, so the pipeline.*
// metrics afterwards are this sample's alone.
struct SweepSample {
  double rate = -1;
  double raster_share = 0;
};

SweepSample sweep_sample(int workers) {
  cycada::glport::apply_system_config(SystemConfig::kCycadaIos);
  cycada::gpu::TileWorkerPool::instance().set_worker_count(workers);
  const cycada::trace::Histogram& raster =
      cycada::trace::MetricsRegistry::instance().histogram(
          "pipeline.stage.raster_ns");
  std::uint64_t primitives = 0;
  std::int64_t elapsed = 0;
  double raster_ns = 0;
  for (const auto& spec : cycada::passmark::test_specs()) {
    auto port = cycada::glport::make_gl_port(SystemConfig::kCycadaIos);
    if (!port->init(512, 512, 1).is_ok()) return {};
    cycada::passmark::PassMark passmark(*port);
    if (!passmark.run(spec.name, 1).is_ok()) return {};  // warm-up
    (void)port->screen();
    const auto start = cycada::now_ns();
    const auto raster_at_start = raster.sum();
    const auto prims = passmark.run(spec.name, spec.frames * kSweepFrameScale);
    if (!prims.is_ok()) return {};
    (void)port->screen();
    elapsed += cycada::now_ns() - start;
    raster_ns += static_cast<double>(raster.sum() - raster_at_start);
    primitives += *prims;
  }
  if (elapsed <= 0) return {};
  return {static_cast<double>(primitives) * 1e9 / static_cast<double>(elapsed),
          raster_ns / static_cast<double>(elapsed)};
}

// CYCADA_PASSMARK_SWEEP: the tile-parallel pipeline scaling run. A 512x512
// surface is an 8x8 grid of 64x64 tiles, enough work per raster phase for
// eight workers to claim and steal. kSweepRounds interleaved rounds each
// time 1/2/4/8 workers back to back, so a burst of host steal lands on one
// round rather than on one worker count. A round whose host steal exceeds
// kMaxStealShare of its wall time is re-run, at most kMaxRetries times, and
// the attempt with the least steal counts. Every attempt's samples are
// printed with its steal and its 1-worker run's raster share (at 1 worker
// record, bin and raster share one thread, so the speedup can only reach
// the workers' count on that share). The emitted speedup per worker count
// is the median of the rounds' speedups over their own 1-worker rate. The
// last round's pipeline.* metrics are snapshotted under fig6.workersN.*
// names.
constexpr int kSweepRounds = 5;
constexpr int kSweepWorkers[] = {1, 2, 4, 8};
constexpr double kMaxStealShare = 0.10;  // steal s over the round's wall s
constexpr int kMaxRetries = 2;           // per round

struct SweepRound {
  std::vector<std::pair<int, double>> rates;  // (workers, prims/sec)
  std::vector<cycada::trace::MetricsSnapshot> pipeline;  // per worker count
  double raster_share = 0;  // of the 1-worker run's wall time
  double steal_s = -1;      // -1 where the kernel does not report steal
  double wall_s = 0;
  double steal_share() const { return steal_s < 0 ? 0 : steal_s / wall_s; }
};

// One attempt at a round; false on failure.
bool run_round(SweepRound& round) {
  auto& metrics = cycada::trace::MetricsRegistry::instance();
  const double steal_at_start = host_steal_s();
  const auto start = cycada::now_ns();
  for (const int workers : kSweepWorkers) {
    const SweepSample sample = sweep_sample(workers);
    if (sample.rate <= 0) return false;
    round.rates.emplace_back(workers, sample.rate);
    if (workers == kSweepWorkers[0]) round.raster_share = sample.raster_share;
    cycada::trace::MetricsSnapshot pipeline;
    const cycada::trace::MetricsSnapshot snap = metrics.snapshot();
    for (const auto& counter : snap.counters) {
      if (counter.name.rfind("pipeline.", 0) == 0) {
        pipeline.counters.push_back(counter);
      }
    }
    for (const auto& histogram : snap.histograms) {
      if (histogram.name.rfind("pipeline.", 0) == 0) {
        pipeline.histograms.push_back(histogram);
      }
    }
    round.pipeline.push_back(std::move(pipeline));
  }
  round.wall_s = static_cast<double>(cycada::now_ns() - start) / 1e9;
  const double steal_at_end = host_steal_s();
  if (steal_at_start >= 0 && steal_at_end >= 0) {
    round.steal_s = steal_at_end - steal_at_start;
  }
  return true;
}

int run_sweep_mode() {
  std::printf(
      "fig6 worker sweep: Cycada iOS PassMark on 512x512 (8x8 tiles), "
      "%d interleaved rounds\n\n",
      kSweepRounds);
  std::printf("%6s %4s %8s %14s %10s %9s %9s\n", "round", "try", "workers",
              "prims/sec", "speedup", "raster1w", "steal_s");
  std::map<int, std::vector<double>> rates;
  std::map<int, std::vector<double>> speedups;
  SweepRound kept;
  int retries = 0;
  for (int round = 0; round < kSweepRounds; ++round) {
    for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
      SweepRound tried;
      if (!run_round(tried)) return 1;
      const double base_rate = tried.rates.front().second;
      for (const auto& [workers, rate] : tried.rates) {
        std::printf("%6d %4d %8d %14.0f %9.2fx %8.0f%% %9.2f\n", round + 1,
                    attempt + 1, workers, rate, rate / base_rate,
                    tried.raster_share * 100, tried.steal_s);
      }
      const double steal_share = tried.steal_share();
      const double wall_s = tried.wall_s;
      if (attempt == 0 || steal_share < kept.steal_share()) {
        kept = std::move(tried);
      }
      if (kept.steal_share() <= kMaxStealShare) break;
      if (attempt < kMaxRetries) {
        ++retries;
        std::printf("%6d %4d   steal was %.0f%% of the round's %.2f s; "
                    "re-running\n",
                    round + 1, attempt + 1, steal_share * 100, wall_s);
      }
    }
    const double base_rate = kept.rates.front().second;
    for (const auto& [workers, rate] : kept.rates) {
      rates[workers].push_back(rate);
      speedups[workers].push_back(rate / base_rate);
    }
  }

  cycada::trace::MetricsSnapshot merged;
  for (std::size_t i = 0; i < kept.pipeline.size(); ++i) {
    const std::string prefix =
        "fig6.workers" + std::to_string(kSweepWorkers[i]) + ".";
    for (const auto& counter : kept.pipeline[i].counters) {
      merged.counters.push_back({prefix + counter.name, counter.value});
    }
    for (cycada::trace::HistogramSnapshot histogram :
         kept.pipeline[i].histograms) {
      histogram.name = prefix + histogram.name;
      merged.histograms.push_back(std::move(histogram));
    }
  }
  std::printf("\n%d round(s) re-run for steal over %.0f%% of their wall "
              "time (at most %d each)\n",
              retries, kMaxStealShare * 100, kMaxRetries);
  merged.counters.push_back(
      {"fig6.sweep.rounds_rerun", static_cast<std::uint64_t>(retries)});
  std::printf("\n%8s %14s %10s   (medians over %d rounds)\n", "workers",
              "prims/sec", "speedup", kSweepRounds);
  for (const int workers : kSweepWorkers) {
    const double rate = median(rates[workers]);
    const double speedup = median(speedups[workers]);
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

}  // namespace

int main() {
  if (const char* sweep = std::getenv("CYCADA_PASSMARK_SWEEP");
      sweep != nullptr && *sweep != '\0' && std::string_view(sweep) != "0") {
    return run_sweep_mode();
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
      rates[label][std::string(spec.name)] = run_rate(config, spec);
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
