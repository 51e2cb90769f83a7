// Diplomat classification of the 344-function iOS GLES universe (Table 2):
// which usage pattern supports each iOS GLES entry point on Android.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/diplomat.h"

namespace cycada::core {

// The pattern Cycada uses for an iOS GLES function (name from the iOS
// function universe; unknown names classify as direct).
DiplomatPattern classify_ios_gl_function(std::string_view name);

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

// All function names using a given pattern (for docs/benches).
std::vector<std::string> functions_with_pattern(DiplomatPattern pattern);

}  // namespace cycada::core
