// Regenerates Table 2 of the paper: "Cycada iOS OpenGL ES Support
// Breakdown" — how many of the 344 iOS GLES entry points each diplomat
// usage pattern supports. The counts come from the live classification the
// Cycada dispatch layer uses, applied to the iOS function universe. The
// Callable column counts only the names an iOS app can call today: the rows
// of the iOS GLES table (ios_gl::dispatch_sites()).
#include <cstdio>
#include <iostream>
#include <string>

#include "core/classification.h"
#include "ios_gl/gles.h"
#include "trace/metrics.h"

int main() {
  using namespace cycada::core;
  const Table2Counts counts = count_table2();
  const Table2Counts callable = count_table2(cycada::ios_gl::dispatch_sites());

  std::printf("Table 2: Cycada iOS OpenGL ES Support Breakdown\n");
  std::printf("%-32s %10s %10s %10s\n", "Type of Support", "Functions",
              "Callable", "Paper");
  const auto row = [](const char* label, int functions, int callable_count,
                      int paper) {
    std::printf("%-32s %10d %10d %10d\n", label, functions, callable_count,
                paper);
  };
  row("Direct Diplomats", counts.direct, callable.direct, 312);
  row("Indirect Diplomats", counts.indirect, callable.indirect, 15);
  row("Data-dependent Diplomats", counts.data_dependent,
      callable.data_dependent, 5);
  row("Multi-Diplomats", counts.multi, callable.multi, 2);
  row("Unimplemented (never called)", counts.unimplemented,
      callable.unimplemented, 10);
  row("Total", counts.total(), callable.total(), 344);

  std::printf("\nIndirect diplomats (iOS extension -> Android mapping):\n");
  for (const auto& name :
       functions_with_pattern(DiplomatPattern::kIndirect)) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("Data-dependent diplomats:\n");
  for (const auto& name :
       functions_with_pattern(DiplomatPattern::kDataDependent)) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("Multi diplomats:\n");
  for (const auto& name : functions_with_pattern(DiplomatPattern::kMulti)) {
    std::printf("  %s\n", name.c_str());
  }

  // Machine-readable mirror of the table, via the metrics registry.
  cycada::trace::MetricsRegistry& metrics =
      cycada::trace::MetricsRegistry::instance();
  const auto emit = [&metrics](const std::string& prefix,
                               const Table2Counts& c) {
    metrics.counter(prefix + "direct").set(c.direct);
    metrics.counter(prefix + "indirect").set(c.indirect);
    metrics.counter(prefix + "data_dependent").set(c.data_dependent);
    metrics.counter(prefix + "multi").set(c.multi);
    metrics.counter(prefix + "unimplemented").set(c.unimplemented);
    metrics.counter(prefix + "total").set(c.total());
  };
  emit("table2.", counts);
  emit("table2.callable.", callable);
  cycada::trace::emit_bench_json(std::cout, metrics.snapshot().to_json());
  return 0;
}
