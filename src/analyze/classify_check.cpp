// Classification prover (docs/ANALYZER.md): cross-checks the hand-written
// Table 2 classification against two independent evidence sources and turns
// residual agreements into replay-proven amendment proposals.
//
//   Source A — a compiled static scanner over the IOS_GL dispatch sites in
//   src/ios_gl/gles.cpp: return-type voidness, pointer-bearing parameters,
//   capture discipline of the dispatch lambdas, diplomat_skip usage, and
//   engine-call redirects, all derived from the site idiom itself.
//
//   Source B — a .cyt trace corpus: the defs record the capture build's
//   pattern/batchable verdicts, and every call event carries the observed
//   void-return and scalar-args bits the dispatch layer staged live.
//
// Either source contradicting src/core/classification.cpp is a blocking
// finding. When both sources agree a direct diplomat is batch-safe and the
// hand table keeps it out, the prover emits an amendment proposal — but
// only after replaying the corpus under the amended classification and
// checking per-diplomat call counts exactly (the amendment must preserve
// behaviour, not just look plausible).
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "analyze/analyze.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "core/replay.h"
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

struct CorpusFacts {
  DiplomatPattern recorded_pattern{};
  bool recorded_batchable = false;
  bool batched_event = false;      // rode the command buffer somewhere
  bool nonvoid_scalar_call = false;  // scalar-args call without void-return
};

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

    // The enclosing function header: IOS_GL is the site's first statement,
    // so the nearest '{' before the marker opens the function, and the
    // header starts at the last column-0 line before that brace.
    const std::size_t brace = contents.rfind('{', marker);
    std::size_t header = 0;
    if (brace != std::string::npos) {
      for (std::size_t i = brace; i > 0; --i) {
        if (contents[i - 1] == '\n' && i < contents.size() &&
            contents[i] != ' ' && contents[i] != '\t' &&
            contents[i] != '\n') {
          header = i;
          break;
        }
      }
      const std::string signature = contents.substr(header, brace - header);
      site.void_return = signature.rfind("void ", 0) == 0;
      const std::size_t params_open = signature.find('(');
      const std::size_t params_close = signature.rfind(')');
      if (params_open != std::string::npos &&
          params_close != std::string::npos && params_close > params_open) {
        site.pointer_args =
            signature.find('*', params_open) < params_close;
      }
    }

    // The site body: everything from the marker to the function's closing
    // brace at column 0.
    std::size_t body_end = contents.find("\n}", marker);
    if (body_end == std::string::npos) body_end = contents.size();
    const std::string body = contents.substr(marker, body_end - marker);
    site.capture_by_value = body.find("[=]") != std::string::npos;
    site.capture_by_ref = body.find("[&]") != std::string::npos;
    site.has_skip = body.find("diplomat_skip") != std::string::npos;
    site.redirect = body_redirects(body, site.name);
    sites.push_back(std::move(site));
  }
  return sites;
}

ClassifyAudit check_classification(
    const std::string& gl_source_path, const std::string& contents,
    const std::vector<const trace::ParsedTrace*>& corpus, Report& report,
    const ClassifyOptions& options) {
  ClassifyAudit audit;
  audit.sites = scan_ios_gl_sites(gl_source_path, contents);
  audit.corpus_traces = corpus.size();

  // --- Source A: static site facts vs the classifier ------------------------
  std::set<std::string> statically_batch_safe;
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

    const bool batch_shape = site.void_return && !site.pointer_args &&
                             site.capture_by_value && !site.capture_by_ref &&
                             !site.has_skip && !site.redirect &&
                             site.declared == DiplomatPattern::kDirect;
    if (batch_shape) statically_batch_safe.insert(site.name);

    if (core::classify_ios_gl_batchable(site.name)) {
      std::string unsafe;
      if (!site.void_return) unsafe += "a non-void return; ";
      if (site.pointer_args) unsafe += "pointer-bearing parameters; ";
      if (site.capture_by_ref) {
        unsafe += "a reference-capturing dispatch lambda; ";
      }
      if (!site.capture_by_value) {
        unsafe += "no value-capturing batch lambda; ";
      }
      if (!unsafe.empty()) {
        unsafe.resize(unsafe.size() - 2);
        report.add("classify", "classify.batchable-unsafe", subject,
                   site.name +
                       " is classified batchable but its dispatch site has " +
                       unsafe +
                       "; deferring this call to a batch flush is unsound");
      }
    }
  }

  // --- Source B: the trace corpus vs the classifier -------------------------
  std::map<std::string, CorpusFacts> corpus_facts;
  std::map<std::string, AmendmentProposal> proposals;
  TraceAuditOptions mine;
  mine.min_run_length = options.min_run_length;
  for (const trace::ParsedTrace* trace : corpus) {
    for (const auto& [id, def] : trace->defs) {
      CorpusFacts& facts = corpus_facts[def.name];
      facts.recorded_pattern = static_cast<DiplomatPattern>(def.pattern);
      facts.recorded_batchable = def.batchable;
    }
    for (const trace::CytRecord& record : trace->records) {
      if (!trace::cyt_is_stream_event(record)) continue;
      const trace::CytDef* def = trace->def(record.id);
      if (def == nullptr) continue;
      CorpusFacts& facts = corpus_facts[def->name];
      const auto kind = static_cast<trace::CytEventKind>(record.kind);
      if (kind == trace::CytEventKind::kBatchedCall) {
        facts.batched_event = true;
      }
      if ((kind == trace::CytEventKind::kCall ||
           kind == trace::CytEventKind::kBatchedCall) &&
          (record.flags & trace::kCytFlagScalarArgs) != 0 &&
          (record.flags & trace::kCytFlagVoidReturn) == 0) {
        facts.nonvoid_scalar_call = true;
      }
    }
    // The miner's run detection feeds the amendment pipeline; its own
    // trace.* findings are the --trace mode's job, so they go to a scratch
    // report here (CI runs both modes).
    Report scratch;
    const TraceAudit mined = check_trace(*trace, scratch, mine);
    for (const BatchCandidate& candidate : mined.candidates) {
      if (candidate.classifier_batchable) continue;  // already approved
      AmendmentProposal& proposal = proposals[candidate.name];
      proposal.name = candidate.name;
      proposal.corpus_occurrences += candidate.occurrences;
      proposal.longest_run =
          std::max(proposal.longest_run, candidate.longest_run);
    }
  }

  for (const auto& [name, facts] : corpus_facts) {
    if (table2_names().count(name) == 0) continue;
    const DiplomatPattern expected = core::classify_ios_gl_function(name);
    const bool expected_batchable = core::classify_ios_gl_batchable(name);
    if (facts.recorded_pattern != expected) {
      report.add("classify", "classify.corpus-contradiction", name,
                 "the corpus recorded pattern " +
                     pattern_str(facts.recorded_pattern) +
                     " but this build's classifier says " +
                     pattern_str(expected));
    } else if (facts.recorded_batchable != expected_batchable) {
      report.add("classify", "classify.corpus-contradiction", name,
                 std::string("the corpus recorded batchable=") +
                     (facts.recorded_batchable ? "true" : "false") +
                     " but this build's classifier says " +
                     (expected_batchable ? "true" : "false") +
                     "; the classification changed without a replay proof");
    }
    if (facts.batched_event && !expected_batchable) {
      report.add("classify", "classify.corpus-contradiction", name,
                 "the corpus shows command-buffer crossings on a name this "
                 "build's classifier rejects as batchable");
    }
    if (facts.nonvoid_scalar_call && expected_batchable) {
      report.add("classify", "classify.corpus-contradiction", name,
                 "the corpus observed a non-void call on a name the "
                 "classifier marks batchable; deferring its result is "
                 "unsound");
    }
  }

  // --- Amendment proposals: static + corpus agreement, then replay proof ----
  for (auto& [name, proposal] : proposals) {
    if (proposal.corpus_occurrences < options.min_corpus_occurrences) continue;
    if (statically_batch_safe.count(name) == 0) continue;
    proposal.why = "corpus: " + std::to_string(proposal.corpus_occurrences) +
                   " call(s) in unbatched runs, longest " +
                   std::to_string(proposal.longest_run) +
                   "; static: void return, scalar args, value-capturing site";
    audit.proposals.push_back(proposal);
  }
  std::sort(audit.proposals.begin(), audit.proposals.end(),
            [](const AmendmentProposal& a, const AmendmentProposal& b) {
              return a.name < b.name;
            });

  if (!audit.proposals.empty() && options.prove_with_replay) {
    // Replay the whole corpus under the widened overlay: per-diplomat call
    // counts must match the recorded streams exactly, and crossings/call
    // must stay within the 5% replay-fidelity bar. Anything else means the
    // amendment changes behaviour and is dropped.
    const core::ClassificationAmendments previous =
        core::current_classification_amendments();
    core::ClassificationAmendments widened = previous;
    for (const AmendmentProposal& proposal : audit.proposals) {
      widened.batchable.push_back(proposal.name);
    }
    core::set_classification_amendments(widened);

    bool proved = true;
    for (const trace::ParsedTrace* trace : corpus) {
      std::map<std::string, std::uint64_t> before;
      for (const core::DiplomatSnapshot& s :
           core::DiplomatRegistry::instance().snapshot()) {
        if (s.calls != 0) before[s.name] = s.calls;
      }
      auto stats = core::replay_trace(*trace, {});
      if (!stats.is_ok()) {
        proved = false;
        break;
      }
      std::map<std::string, std::uint64_t> observed;
      for (const core::DiplomatSnapshot& s :
           core::DiplomatRegistry::instance().snapshot()) {
        if (s.calls == 0) continue;
        auto it = before.find(s.name);
        const std::uint64_t base = it == before.end() ? 0 : it->second;
        if (s.calls != base) observed[s.name] = s.calls - base;
      }
      Report divergence;
      check_replay_divergence(core::trace_call_counts(*trace), observed,
                              divergence);
      const double expected_cpc =
          stats->calls == 0
              ? 0.0
              : static_cast<double>(core::trace_expected_crossings(*trace)) /
                    static_cast<double>(stats->calls);
      const double cpc = stats->crossings_per_call();
      const bool cpc_ok = expected_cpc == 0.0 ||
                          (cpc >= expected_cpc * 0.95 &&
                           cpc <= expected_cpc * 1.05);
      if (!divergence.clean() || !cpc_ok) {
        proved = false;
        break;
      }
    }
    core::set_classification_amendments(previous);

    if (proved) {
      for (AmendmentProposal& proposal : audit.proposals) {
        proposal.replay_proved = true;
        proposal.why += "; replay-proved over " +
                        std::to_string(corpus.size()) + " trace(s)";
      }
    } else {
      // Unproved proposals never leave the prover.
      audit.proposals.clear();
    }
  }
  return audit;
}

std::string render_classification_amendments(
    const std::vector<AmendmentProposal>& proposals) {
  std::string out(core::kClassificationAmendmentsHeader);
  out +=
      "\n"
      "# Auto-generated by cycada_check --classify. Every entry agreed with\n"
      "# the static dispatch-site facts AND the trace corpus, and the corpus\n"
      "# replayed under the amended classification with exact per-diplomat\n"
      "# call counts (docs/ANALYZER.md). Load with CYCADA_CLASSIFY_AMEND.\n";
  for (const AmendmentProposal& proposal : proposals) {
    out += "batchable " + proposal.name + "  # " + proposal.why + "\n";
  }
  return out;
}

}  // namespace cycada::analyze
