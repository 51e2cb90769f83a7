// Regenerates Table 3 of the paper: kernel-level / ABI micro-benchmarks.
//
// Left column (lmbench-style null syscall) across the four kernel
// configurations; right column (diplomatic calls): a plain function call, a
// bare diplomat, a diplomat with empty prelude/postlude, and a diplomat
// with the Cycada GLES prelude/postlude. Absolute nanoseconds differ from
// the paper's ARM hardware; the orderings and ratios are the result.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "core/diplomat.h"
#include "core/impersonation.h"
#include "kernel/kernel.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/lock_order.h"

namespace {

using cycada::kernel::Kernel;
using cycada::kernel::Persona;
using cycada::kernel::TrapModel;

void configure(TrapModel model, Persona persona) {
  Kernel& kernel = Kernel::instance();
  kernel.set_trap_model(model);
  kernel.register_current_thread(persona);
  cycada::kernel::sys_set_persona(persona);
}

// --- Null syscall (Table 3 left) -------------------------------------------

void BM_NullSyscall_StockAndroid(benchmark::State& state) {
  configure(TrapModel::kStockAndroid, Persona::kAndroid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
}
BENCHMARK(BM_NullSyscall_StockAndroid);

void BM_NullSyscall_CycadaAndroid(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kAndroid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
}
BENCHMARK(BM_NullSyscall_CycadaAndroid);

void BM_NullSyscall_CycadaIos(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_NullSyscall_CycadaIos);

void BM_NullSyscall_IpadIos(benchmark::State& state) {
  configure(TrapModel::kIpadIos, Persona::kIos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycada::kernel::sys_null());
  }
  Kernel::instance().set_trap_model(TrapModel::kCycada);
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_NullSyscall_IpadIos);

// --- Diplomatic calls (Table 3 right) ---------------------------------------

// The domestic function a diplomat would invoke.
int domestic_work(int value) { return value + 1; }

void BM_StandardFunction(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  int value = 0;
  for (auto _ : state) {
    auto* fn = domestic_work;
    benchmark::DoNotOptimize(fn);
    value = fn(value);
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_StandardFunction);

void BM_Diplomat(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat", cycada::core::DiplomatPattern::kDirect);
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, {},
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_Diplomat);

void BM_DiplomatEmptyPrePost(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat_prepost", cycada::core::DiplomatPattern::kDirect);
  cycada::core::DiplomatHooks hooks;
  hooks.prelude = [] {};
  hooks.postlude = [] {};
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, hooks,
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_DiplomatEmptyPrePost);

void BM_DiplomatGlPrePost(benchmark::State& state) {
  configure(TrapModel::kCycada, Persona::kIos);
  cycada::core::GraphicsTlsTracker::instance().install();
  auto& entry = cycada::core::DiplomatRegistry::instance().entry(
      "bench.diplomat_gl", cycada::core::DiplomatPattern::kDirect);
  cycada::core::DiplomatHooks hooks;
  hooks.prelude = [] {
    cycada::core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  };
  hooks.postlude = [] {
    cycada::core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
  };
  int value = 0;
  for (auto _ : state) {
    value = cycada::core::diplomat_call(entry, hooks,
                                        [&] { return domestic_work(value); });
    benchmark::DoNotOptimize(value);
  }
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}
BENCHMARK(BM_DiplomatGlPrePost);

// --- Dispatch fast path (docs/DISPATCH.md) -----------------------------------

void BM_DispatchByName(benchmark::State& state) {
  auto& registry = cycada::core::DiplomatRegistry::instance();
  (void)registry.entry("bench.bm_dispatch",
                       cycada::core::DiplomatPattern::kDirect);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.entry(
        "bench.bm_dispatch", cycada::core::DiplomatPattern::kDirect));
  }
}
BENCHMARK(BM_DispatchByName);

void BM_DispatchById(benchmark::State& state) {
  auto& registry = cycada::core::DiplomatRegistry::instance();
  const cycada::core::DiplomatId id = registry.resolve(
      "bench.bm_dispatch", cycada::core::DiplomatPattern::kDirect);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&registry.entry_by_id(id));
  }
}
BENCHMARK(BM_DispatchById);

// The lock-free dispatch path outside google-benchmark, so its costs land in
// the bench JSON (table3.dispatch.*_ns_x1000; sub-nanosecond means are
// exported as ns x1000 and gated by bench_compare.sh; the key names predate
// the name index and are kept so runs stay comparable): a name lookup the
// per-thread one-entry cache serves, names rotating past that cache (name
// index probe), and resolve-once DiplomatId indexing. Then a recorded dispatch burst
// proves the steady-state read path never takes the kDiplomatRegistry
// writer mutex. Returns that burst's acquisition count (must be zero).
std::uint64_t run_dispatch_proof() {
  namespace core = cycada::core;
  namespace util = cycada::util;
  constexpr int kIterations = 2000000;
  constexpr int kSteadyCalls = 100000;
  constexpr auto kPattern = core::DiplomatPattern::kDirect;
  static const char* const kNames[] = {
      "bench.cmp0", "bench.cmp1", "bench.cmp2", "bench.cmp3",
      "bench.cmp4", "bench.cmp5", "bench.cmp6", "bench.cmp7"};
  constexpr int kNameCount = 8;

  core::DiplomatRegistry& registry = core::DiplomatRegistry::instance();
  for (const char* name : kNames) (void)registry.entry(name, kPattern);
  const core::DiplomatId id = registry.resolve(kNames[0], kPattern);
  const auto per_call_ns = [](const auto& fn) {
    for (int i = 0; i < kIterations / 10 + 1; ++i) fn(i);  // warm-up
    const std::int64_t start = cycada::now_ns();
    for (int i = 0; i < kIterations; ++i) fn(i);
    return static_cast<double>(cycada::now_ns() - start) / kIterations;
  };
  const double name_ns = per_call_ns([&](int) {
    benchmark::DoNotOptimize(&registry.entry(kNames[0], kPattern));
  });
  const double multi_ns = per_call_ns([&](int i) {
    benchmark::DoNotOptimize(
        &registry.entry(kNames[i % kNameCount], kPattern));
  });
  const double by_id_ns = per_call_ns(
      [&](int) { benchmark::DoNotOptimize(&registry.entry_by_id(id)); });

  util::LockOrderGraph& graph = util::LockOrderGraph::instance();
  const bool was_recording = graph.recording();
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(true);
  for (int i = 0; i < kSteadyCalls; ++i) {
    benchmark::DoNotOptimize(
        &registry.entry(kNames[i % kNameCount], kPattern));
    benchmark::DoNotOptimize(&registry.entry_by_id(id));
  }
  const std::uint64_t acquisitions =
      graph.acquisitions(util::LockLevel::kDiplomatRegistry);
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(was_recording);

  std::printf(
      "\nDiplomat dispatch (lock-free name index)\n"
      "%-40s %10.2f ns\n%-40s %10.2f ns\n%-40s %10.2f ns\n"
      "steady-state diplomat-registry mutex acquisitions: %llu in %d "
      "dispatches (%s)\n",
      "name lookup, per-thread cache hit", name_ns,
      "rotating names, name index probe", multi_ns,
      "resolved DiplomatId", by_id_ns,
      static_cast<unsigned long long>(acquisitions), 2 * kSteadyCalls,
      acquisitions == 0 ? "lock-free: PASS" : "lock-free: FAIL");

  cycada::trace::MetricsRegistry& metrics =
      cycada::trace::MetricsRegistry::instance();
  const auto set_ns = [&](const char* key, double ns) {
    metrics.counter(std::string("table3.dispatch.") + key)
        .set(static_cast<std::uint64_t>(ns * 1000.0));
  };
  set_ns("snapshot_name_ns_x1000", name_ns);
  set_ns("snapshot_multi_ns_x1000", multi_ns);
  set_ns("by_id_ns_x1000", by_id_ns);
  metrics.counter("table3.dispatch.steady_registry_acquisitions")
      .set(acquisitions);
  metrics.counter("table3.dispatch.steady_calls").set(2 * kSteadyCalls);
  return acquisitions;
}

// --- Capture overhead (src/trace/cyt.h) --------------------------------------

// The observability tax: the same dispatch loop with the .cyt recorder off
// and on. The capture hot path is clock-free and share-nothing (a record
// built into a thread-private chunk; see src/trace/cyt.h), so the marginal
// cost is a handful of stores per call.
//
// The <10% acceptance gate is evaluated against the paper's Table 3
// diplomat dispatch latency (816 ns; DESIGN.md §Table 3). The simulation
// compresses that crossing to ~50 ns (EXPERIMENTS.md keeps the paper/sim
// ratios, not the absolute scale), while capture's cost here is real
// hardware nanoseconds — dividing real capture ns by a ~16x-compressed
// dispatch would overstate the tax by the same 16x. Both ratios are
// printed; the sim-relative one is informational.
void run_capture_overhead_proof() {
  namespace core = cycada::core;
  namespace trace = cycada::trace;
  configure(TrapModel::kCycada, Persona::kIos);
  auto& entry = core::DiplomatRegistry::instance().entry(
      "glEnable", core::DiplomatPattern::kDirect);
  constexpr int kWarmup = 2048;
  constexpr int kCalls = 32768;
  constexpr int kRepeats = 3;  // best-of: the host is a single shared CPU
  constexpr double kPaperDiplomatNs = 816.0;
  const auto measure = [&] {
    double best = 0.0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (int i = 0; i < kWarmup; ++i) core::diplomat_call(entry, {}, [] {});
      const std::int64_t start = cycada::now_ns();
      for (int i = 0; i < kCalls; ++i) core::diplomat_call(entry, {}, [] {});
      const double ns = static_cast<double>(cycada::now_ns() - start) /
                        static_cast<double>(kCalls);
      if (repeat == 0 || ns < best) best = ns;
    }
    return best;
  };

  const double off_ns = measure();
  const char* path = "/tmp/cycada_table3_capture.cyt";
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  if (!recorder.start(path).is_ok()) {
    std::printf("capture overhead: recorder start failed, skipping\n");
    return;
  }
  const double on_ns = measure();
  (void)recorder.stop();
  std::remove(path);

  const double overhead_ns = on_ns > off_ns ? on_ns - off_ns : 0.0;
  const double pct_sim = off_ns > 0 ? overhead_ns / off_ns * 100.0 : 0.0;
  const double pct_table3 = overhead_ns / kPaperDiplomatNs * 100.0;
  std::printf(
      "\nTrace capture overhead (CYCADA_TRACE_CAPTURE, %d calls, best of "
      "%d)\n"
      "%-40s %10.1f ns/call\n"
      "%-40s %10.1f ns/call  (+%.1f ns, +%.1f%% of the sim dispatch)\n"
      "%-40s %10.1f%%  (%s; +%.1f ns on the paper's 816 ns diplomat)\n",
      kCalls, kRepeats, "dispatch, capture off", off_ns,
      "dispatch, capture on", on_ns, overhead_ns, pct_sim,
      "vs table3 diplomat dispatch latency", pct_table3,
      pct_table3 < 10.0 ? "< 10%: PASS" : ">= 10%: FAIL", overhead_ns);

  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  metrics.counter("table3.capture.dispatch_off_ns")
      .set(static_cast<std::uint64_t>(off_ns));
  metrics.counter("table3.capture.dispatch_on_ns")
      .set(static_cast<std::uint64_t>(on_ns));
  metrics.counter("table3.capture.overhead_pct_sim_x1000")
      .set(static_cast<std::uint64_t>(pct_sim * 1000.0));
  metrics.counter("table3.capture.overhead_pct_table3_x1000")
      .set(static_cast<std::uint64_t>(pct_table3 * 1000.0));
  cycada::kernel::sys_set_persona(Persona::kAndroid);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Table 3: Kernel-level / ABI Micro-Benchmarks\n"
      "Paper (ARM, 1.3GHz): null syscall stock 225ns < Cycada Android 244ns"
      " (+8%%)\n  < Cycada iOS 305ns (+35%%) < iPad iOS 575ns;\n"
      "  fn call 9ns << diplomat 816ns ~ +pre/post 828ns < +GL pre/post "
      "933ns (~3 syscalls)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const std::uint64_t registry_acquisitions = run_dispatch_proof();
  run_capture_overhead_proof();
  cycada::trace::emit_bench_json(
      std::cout,
      cycada::trace::MetricsRegistry::instance().snapshot().to_json());
  return registry_acquisitions == 0 ? 0 : 1;
}
