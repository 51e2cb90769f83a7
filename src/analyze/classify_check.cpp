// Classification check (docs/ANALYZER.md): cross-checks the hand-written
// Table 2 classification against two independent evidence sources.
//
//   Source A — the rows of the callable iOS GLES table
//   (src/ios_gl/gles_table.h, listed by ios_gl::dispatch_sites()): which
//   names have a dispatch site, and which engine call a forwarding row
//   makes.
//
//   Source B — a .cyt trace corpus: the defs record the capture build's
//   pattern verdicts.
//
// Either source contradicting src/core/classification.cpp is a blocking
// finding.
#include <map>
#include <string>

#include "analyze/analyze.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "trace/cyt.h"

namespace cycada::analyze {

namespace {

using core::DiplomatPattern;

std::string pattern_str(DiplomatPattern pattern) {
  return std::string(core::pattern_name(pattern));
}

}  // namespace

void check_classification(std::span<const core::DispatchSite> sites,
                          const std::vector<const trace::ParsedTrace*>& corpus,
                          Report& report) {
  // --- Source A: the table's rows vs the classifier -------------------------
  for (const core::DispatchSite& site : sites) {
    const std::string name = site.name;
    if (!core::in_table2_universe(name)) {
      report.add("classify", "classify.signature-mismatch", name,
                 name +
                     " has a dispatch site but is not in the Table 2 "
                     "universe; the table and the classification have "
                     "drifted apart");
      continue;
    }
    const DiplomatPattern declared = core::classify_ios_gl_function(name);
    if (declared == DiplomatPattern::kUnimplemented) {
      report.add("classify", "classify.signature-mismatch", name,
                 name +
                     " is classified unimplemented yet has a dispatch site");
    }
    if (site.engine_name != nullptr && name != site.engine_name &&
        declared == DiplomatPattern::kDirect) {
      report.add("classify", "classify.signature-mismatch", name,
                 name + " forwards to " + site.engine_name +
                     " — the input-re-arranging shape of an indirect "
                     "diplomat — but is classified direct");
    }
  }

  // --- Source B: the trace corpus vs the classifier -------------------------
  // One verdict per name; a later trace's def overrides an earlier one.
  std::map<std::string, DiplomatPattern> recorded;
  for (const trace::ParsedTrace* trace : corpus) {
    for (const auto& [id, def] : trace->defs) {
      recorded[def.name] = static_cast<DiplomatPattern>(def.pattern);
    }
  }
  for (const auto& [name, pattern] : recorded) {
    if (!core::in_table2_universe(name)) continue;
    const DiplomatPattern expected = core::classify_ios_gl_function(name);
    if (pattern != expected) {
      report.add("classify", "classify.corpus-contradiction", name,
                 "the corpus recorded pattern " + pattern_str(pattern) +
                     " but this build's classifier says " +
                     pattern_str(expected));
    }
  }
}

}  // namespace cycada::analyze
