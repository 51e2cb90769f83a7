// Classification check (docs/ANALYZER.md): cross-checks the hand-written
// Table 2 classification against two independent evidence sources.
//
//   Source A — a compiled static scanner over the IOS_GL dispatch sites in
//   src/ios_gl/gles.cpp: diplomat_skip usage and engine-call redirects,
//   both derived from the site idiom itself.
//
//   Source B — a .cyt trace corpus: the defs record the capture build's
//   pattern verdicts.
//
// Either source contradicting src/core/classification.cpp is a blocking
// finding.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analyze/analyze.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "trace/cyt.h"

namespace cycada::analyze {

namespace {

using core::DiplomatPattern;

// Built by concatenation so the scanner (and the source lint, which walks
// this file too) never keys on its own string literals.
const std::string kSiteNeedle = std::string("IOS_") + "GL(";

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

const std::set<std::string>& table2_names() {
  static const std::set<std::string>* universe = [] {
    auto* set = new std::set<std::string>();
    for (auto pattern :
         {DiplomatPattern::kDirect, DiplomatPattern::kIndirect,
          DiplomatPattern::kDataDependent, DiplomatPattern::kMulti,
          DiplomatPattern::kUnimplemented}) {
      for (std::string& name : core::functions_with_pattern(pattern)) {
        set->insert(std::move(name));
      }
    }
    return set;
  }();
  return *universe;
}

int line_of(const std::string& contents, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(contents.begin(), contents.begin() + pos, '\n'));
}

// Any engine invocation in `body` ("gl.glFoo(") whose callee name differs
// from `site_name` — the input-re-arranging shape of an indirect diplomat.
bool body_redirects(const std::string& body, const std::string& site_name) {
  std::size_t pos = 0;
  while ((pos = body.find("gl.", pos)) != std::string::npos) {
    if (pos > 0 && (ident_char(body[pos - 1]) || body[pos - 1] == '.')) {
      pos += 3;
      continue;
    }
    std::size_t begin = pos + 3;
    std::size_t end = begin;
    while (end < body.size() && ident_char(body[end])) ++end;
    const std::string callee = body.substr(begin, end - begin);
    if (callee.rfind("gl", 0) == 0 && callee != site_name) return true;
    pos = end;
  }
  return false;
}

std::string pattern_str(DiplomatPattern pattern) {
  return std::string(core::pattern_name(pattern));
}

}  // namespace

std::vector<ClassifySiteFacts> scan_ios_gl_sites(const std::string& path,
                                                 const std::string& contents) {
  (void)path;
  std::vector<ClassifySiteFacts> sites;
  std::size_t pos = 0;
  while ((pos = contents.find(kSiteNeedle, pos)) != std::string::npos) {
    const std::size_t marker = pos;
    pos += kSiteNeedle.size();
    // Skip the macro definition itself (and anything not inside a function).
    const std::size_t line_start = contents.rfind('\n', marker);
    const std::size_t first_char =
        contents.find_first_not_of(" \t", line_start == std::string::npos
                                             ? 0
                                             : line_start + 1);
    if (first_char != std::string::npos && contents[first_char] == '#') {
      continue;
    }
    const std::size_t name_end = contents.find(')', pos);
    if (name_end == std::string::npos) break;

    ClassifySiteFacts site;
    site.name = contents.substr(pos, name_end - pos);
    site.line = line_of(contents, marker);
    site.declared = core::classify_ios_gl_function(site.name);

    // The site body: everything from the marker to the function's closing
    // brace at column 0.
    std::size_t body_end = contents.find("\n}", marker);
    if (body_end == std::string::npos) body_end = contents.size();
    const std::string body = contents.substr(marker, body_end - marker);
    site.has_skip = body.find("diplomat_skip") != std::string::npos;
    site.redirect = body_redirects(body, site.name);
    sites.push_back(std::move(site));
  }
  return sites;
}

ClassifyAudit check_classification(
    const std::string& gl_source_path, const std::string& contents,
    const std::vector<const trace::ParsedTrace*>& corpus, Report& report) {
  ClassifyAudit audit;
  audit.sites = scan_ios_gl_sites(gl_source_path, contents);
  audit.corpus_traces = corpus.size();

  // --- Source A: static site facts vs the classifier ------------------------
  for (const ClassifySiteFacts& site : audit.sites) {
    const std::string subject =
        gl_source_path + ":" + std::to_string(site.line);
    if (table2_names().count(site.name) == 0) {
      report.add("classify", "classify.signature-mismatch", subject,
                 site.name +
                     " has a dispatch site but is not in the Table 2 "
                     "universe; the site and the classification tables have "
                     "drifted apart");
      continue;
    }
    if (site.declared == DiplomatPattern::kUnimplemented) {
      report.add("classify", "classify.signature-mismatch", subject,
                 site.name +
                     " is classified unimplemented yet has a live IOS_GL "
                     "dispatch site");
    }
    if (site.has_skip && site.declared != DiplomatPattern::kDataDependent) {
      report.add("classify", "classify.signature-mismatch", subject,
                 site.name + " answers on the iOS side (diplomat_skip) but "
                             "is classified " +
                     pattern_str(site.declared) +
                     "; only data-dependent diplomats may skip");
    }
    if (site.redirect && site.declared == DiplomatPattern::kDirect) {
      report.add("classify", "classify.signature-mismatch", subject,
                 site.name +
                     " re-directs to a differently-named engine entry — the "
                     "input-re-arranging shape of an indirect diplomat — but "
                     "is classified direct");
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
    if (table2_names().count(name) == 0) continue;
    const DiplomatPattern expected = core::classify_ios_gl_function(name);
    if (pattern != expected) {
      report.add("classify", "classify.corpus-contradiction", name,
                 "the corpus recorded pattern " + pattern_str(pattern) +
                     " but this build's classifier says " +
                     pattern_str(expected));
    }
  }
  return audit;
}

}  // namespace cycada::analyze
