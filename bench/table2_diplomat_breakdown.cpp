// Regenerates Table 2 of the paper: "Cycada iOS OpenGL ES Support
// Breakdown" — how many of the 344 iOS GLES entry points each diplomat
// usage pattern supports. The counts come from the live classification the
// Cycada dispatch layer uses, applied to the iOS function universe.
#include <cstdio>
#include <iostream>

#include "core/classification.h"
#include "trace/metrics.h"

int main() {
  using namespace cycada::core;
  const Table2Counts counts = count_table2();

  std::printf("Table 2: Cycada iOS OpenGL ES Support Breakdown\n");
  std::printf("%-32s %10s %10s\n", "Type of Support", "Functions", "Paper");
  std::printf("%-32s %10d %10d\n", "Direct Diplomats", counts.direct, 312);
  std::printf("%-32s %10d %10d\n", "Indirect Diplomats", counts.indirect, 15);
  std::printf("%-32s %10d %10d\n", "Data-dependent Diplomats",
              counts.data_dependent, 5);
  std::printf("%-32s %10d %10d\n", "Multi-Diplomats", counts.multi, 2);
  std::printf("%-32s %10d %10d\n", "Unimplemented (never called)",
              counts.unimplemented, 10);
  std::printf("%-32s %10d %10d\n", "Total", counts.total(), 344);

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
  metrics.counter("table2.direct").set(counts.direct);
  metrics.counter("table2.indirect").set(counts.indirect);
  metrics.counter("table2.data_dependent").set(counts.data_dependent);
  metrics.counter("table2.multi").set(counts.multi);
  metrics.counter("table2.unimplemented").set(counts.unimplemented);
  metrics.counter("table2.total").set(counts.total());
  cycada::trace::emit_bench_json(std::cout, metrics.snapshot().to_json());
  return 0;
}
