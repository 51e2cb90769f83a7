#include "core/classification.h"

#include <algorithm>

#include "glcore/api_registry.h"

namespace cycada::core {

namespace {

// Indirect diplomats (15): iOS extension functions mapped to similar Android
// functionality with input re-arranging — APPLE_fence -> NV_fence is the
// paper's worked example (§4.1).
constexpr std::string_view kIndirect[] = {
    "glGenFencesAPPLE", "glDeleteFencesAPPLE", "glSetFenceAPPLE",
    "glIsFenceAPPLE", "glTestFenceAPPLE", "glFinishFenceAPPLE",
    "glTestObjectAPPLE", "glFinishObjectAPPLE",
    "glRenderbufferStorageMultisampleAPPLE",
    "glResolveMultisampleFramebufferAPPLE",
    "glMapBufferRangeEXT", "glFlushMappedBufferRangeEXT",
    "glCopyTextureLevelsAPPLE", "glTexStorage2DEXT", "glTextureStorage2DEXT",
};

// Data-dependent diplomats (5): glGetString's Apple-only parameter, and the
// APPLE_row_bytes machinery — glPixelStorei takes the extra parameters and
// three pixel-path functions honor them (§4.1).
constexpr std::string_view kDataDependent[] = {
    "glGetString", "glPixelStorei", "glReadPixels", "glTexImage2D",
    "glTexSubImage2D",
};

// Multi diplomats (2): functions whose iOS semantics span several Android
// calls — glDeleteTextures must also sever IOSurface/GraphicBuffer
// associations (§6.1), and glRenderbufferStorage participates in EAGL
// drawable management (§5).
constexpr std::string_view kMulti[] = {
    "glDeleteTextures", "glRenderbufferStorage",
};

// Unimplemented (10): never called by the apps the prototype targets.
constexpr std::string_view kUnimplemented[] = {
    "glShaderBinary", "glReleaseShaderCompiler", "glGetShaderPrecisionFormat",
    "glValidateProgram", "glGetAttachedShaders", "glLogicOp", "glGetPointerv",
    "glPointParameterxv", "glMultiTexCoord4x", "glSampleCoveragex",
};

template <std::size_t N>
bool contains(const std::string_view (&list)[N], std::string_view name) {
  for (std::string_view candidate : list) {
    if (candidate == name) return true;
  }
  return false;
}

void count_name(std::string_view name, Table2Counts& counts) {
  switch (classify_ios_gl_function(name)) {
    case DiplomatPattern::kDirect: ++counts.direct; break;
    case DiplomatPattern::kIndirect: ++counts.indirect; break;
    case DiplomatPattern::kDataDependent: ++counts.data_dependent; break;
    case DiplomatPattern::kMulti: ++counts.multi; break;
    case DiplomatPattern::kUnimplemented: ++counts.unimplemented; break;
  }
}

}  // namespace

DiplomatPattern classify_ios_gl_function(std::string_view name) {
  if (contains(kIndirect, name)) return DiplomatPattern::kIndirect;
  if (contains(kDataDependent, name)) return DiplomatPattern::kDataDependent;
  if (contains(kMulti, name)) return DiplomatPattern::kMulti;
  if (contains(kUnimplemented, name)) return DiplomatPattern::kUnimplemented;
  return DiplomatPattern::kDirect;
}

bool in_table2_universe(std::string_view name) {
  // ios_function_universe() is sorted and duplicate-free.
  static const std::vector<std::string>* universe =
      new std::vector<std::string>(glcore::ios_function_universe());
  return std::binary_search(universe->begin(), universe->end(), name);
}

Table2Counts count_table2() {
  Table2Counts counts;
  for (const std::string& name : glcore::ios_function_universe()) {
    count_name(name, counts);
  }
  return counts;
}

Table2Counts count_table2(std::span<const DispatchSite> sites) {
  Table2Counts counts;
  for (const DispatchSite& site : sites) count_name(site.name, counts);
  return counts;
}

std::vector<std::string> functions_with_pattern(DiplomatPattern pattern) {
  std::vector<std::string> out;
  for (const std::string& name : glcore::ios_function_universe()) {
    if (classify_ios_gl_function(name) == pattern) out.push_back(name);
  }
  return out;
}

}  // namespace cycada::core
