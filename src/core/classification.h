// Diplomat classification of the 344-function iOS GLES universe (Table 2):
// which usage pattern supports each iOS GLES entry point on Android.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/diplomat.h"

namespace cycada::core {

// The pattern Cycada uses for an iOS GLES function (name from the iOS
// function universe; unknown names classify as direct).
DiplomatPattern classify_ios_gl_function(std::string_view name);

// True for the 344 names of the iOS function universe, the names whose
// classification is authoritative. Bridge internals, bench diplomats and
// test entries fall outside it.
bool in_table2_universe(std::string_view name);

// One row of the callable iOS GLES surface (src/ios_gl/gles_table.h, listed
// by ios_gl::dispatch_sites()). A forwarding row names the engine call it
// forwards to; a custom row has a hand-written body and names none.
struct DispatchSite {
  const char* name;
  const char* engine_name;  // null for a custom row
};

struct Table2Counts {
  int direct = 0;
  int indirect = 0;
  int data_dependent = 0;
  int multi = 0;
  int unimplemented = 0;
  int total() const {
    return direct + indirect + data_dependent + multi + unimplemented;
  }
};

// Classifies the whole universe (the numbers of Table 2).
Table2Counts count_table2();
// Classifies the callable names only: one count per dispatch site.
Table2Counts count_table2(std::span<const DispatchSite> sites);

// All function names using a given pattern (for docs/benches).
std::vector<std::string> functions_with_pattern(DiplomatPattern pattern);

}  // namespace cycada::core
