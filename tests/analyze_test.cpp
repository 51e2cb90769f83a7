// cycada-check tests: each checker must (a) run clean on the real tree /
// a well-behaved workload and (b) detect a deliberately seeded violation of
// every contract class (DESIGN.md §6).
#include "analyze/analyze.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/classification.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "core/session.h"
#include "glport/gl_port.h"
#include "glport/system_config.h"
#include "ios_gl/eagl.h"
#include "ios_gl/egl_bridge.h"
#include "ios_gl/gles.h"
#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "linker/linker.h"
#include "trace/metrics.h"
#include "util/lock_order.h"
#include "util/thread_role.h"

namespace cycada::analyze {
namespace {

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::LockOrderGraph::instance().set_recording(false);
    util::LockOrderGraph::instance().reset();
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    TlsAudit::instance().reset();
  }

  void TearDown() override {
    util::LockOrderGraph::instance().set_recording(false);
    util::LockOrderGraph::instance().reset();
    TlsAudit::instance().reset();
    // Negative fixtures may leave a graphics-TLS window open on purpose.
    while (core::GraphicsTlsTracker::instance().in_graphics_diplomat()) {
      core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
    }
  }
};

core::DiplomatEntry& make_entry(std::string_view name,
                                core::DiplomatPattern pattern) {
  return core::DiplomatRegistry::instance().entry(name, pattern);
}

// --- Clean tree / clean workload -------------------------------------------

TEST_F(AnalyzeTest, CleanWorkloadProducesNoFindings) {
  util::LockOrderGraph::instance().set_recording(true);
  TlsAudit::instance().install();

  // A miniature iOS-app frame: EAGL drawable + present, all via diplomats
  // into a dlforce-minted replica.
  auto context = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 32, 32);
  ASSERT_TRUE(context.is_ok());
  ios_gl::EAGLContext::set_current_context(*context);
  ios_gl::GLuint rbo = 0;
  ios_gl::glGenRenderbuffers(1, &rbo);
  ASSERT_TRUE((*context)
                  ->renderbuffer_storage_from_drawable(
                      rbo, ios_gl::CAEAGLLayer{32, 32})
                  .is_ok());
  ios_gl::glClearColor(0.f, 0.5f, 0.f, 1.f);
  ios_gl::glClear(glcore::GL_COLOR_BUFFER_BIT);
  EXPECT_NE(ios_gl::glGetString(glcore::GL_VENDOR), nullptr);
  EXPECT_TRUE((*context)->present_renderbuffer(rbo).is_ok());

  Report report;
  check_diplomat_contracts(report);
  check_lock_order(report);
  check_replica_isolation(report);
  check_tls_migration(report);
  if (!report.clean()) report.print(std::cerr);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(util::LockOrderGraph::instance().edges().empty());
  ios_gl::EAGLContext::clear_current_context();
}

TEST_F(AnalyzeTest, LintRunsCleanOnTheRealTree) {
  Report report;
  ASSERT_TRUE(lint_source_tree(CYCADA_SOURCE_DIR "/src", report));
  if (!report.clean()) report.print(std::cerr);
  EXPECT_TRUE(report.clean());
}

TEST_F(AnalyzeTest, ContractCountersBalanceUnderConcurrentLockFreeDispatch) {
  // The registry's lock-free read path must not cost contract accuracy:
  // many threads resolving entries by name (per-thread cache + name index
  // probe, no registry mutex) and dispatching with hooks and data-dependent
  // skips must leave every counter exactly balanced, so the checker stays
  // clean and the totals add up.
  core::DiplomatEntry& direct =
      make_entry("concurrent_direct", core::DiplomatPattern::kDirect);
  core::DiplomatEntry& data_dep = make_entry(
      "concurrent_data_dep", core::DiplomatPattern::kDataDependent);

  constexpr int kThreads = 4;
  constexpr int kCalls = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      core::DiplomatHooks hooks;
      hooks.prelude = [] {};
      hooks.postlude = [] {};
      core::DiplomatRegistry& registry = core::DiplomatRegistry::instance();
      for (int i = 0; i < kCalls; ++i) {
        core::diplomat_call(
            registry.entry("concurrent_direct", core::DiplomatPattern::kDirect),
            hooks, [] {});
        core::DiplomatEntry& dd = registry.entry(
            "concurrent_data_dep", core::DiplomatPattern::kDataDependent);
        // Data-dependent: odd iterations answer on the iOS side.
        if ((i + t) % 2 == 0) {
          core::diplomat_call(dd, {}, [] {});
        } else {
          core::diplomat_skip(dd);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kCalls;
  EXPECT_EQ(direct.calls.load(), kTotal);
  EXPECT_EQ(direct.contract.preludes.load(), kTotal);
  EXPECT_EQ(direct.contract.postludes.load(), kTotal);
  EXPECT_EQ(direct.contract.domestic_calls.load(), kTotal);
  EXPECT_EQ(data_dep.calls.load(), kTotal);
  EXPECT_EQ(data_dep.contract.domestic_calls.load() +
                data_dep.contract.skipped_calls.load(),
            kTotal);
  EXPECT_EQ(data_dep.contract.skipped_calls.load(), kTotal / 2);

  Report report;
  check_diplomat_contracts(report);
  if (!report.clean()) report.print(std::cerr);
  EXPECT_TRUE(report.clean());
}

// --- Diplomat contract violations (seeded) ----------------------------------

TEST_F(AnalyzeTest, DetectsSkippedPostlude) {
  core::DiplomatEntry& entry =
      make_entry("test_prelude_only", core::DiplomatPattern::kDirect);
  core::DiplomatHooks hooks;
  // A prelude that opens the graphics-TLS window with no postlude to close
  // it: both the hook imbalance and the open window must be reported.
  hooks.prelude = [] {
    core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  };
  core::diplomat_call(entry, hooks, [] {});

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.prelude-postlude-balance"));
  EXPECT_TRUE(report.has_rule("diplomat.open-graphics-window"));
}

TEST_F(AnalyzeTest, DetectsUnbalancedPersonaInDomesticCode) {
  core::DiplomatEntry& entry =
      make_entry("test_unbalanced", core::DiplomatPattern::kDirect);
  core::diplomat_call(entry, {}, [] {
    // Domestic code that switches persona and "forgets" to switch back.
    kernel::sys_set_persona(kernel::Persona::kIos);
  });

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.unbalanced-persona"));
}

TEST_F(AnalyzeTest, DetectsPersonaCrossingFromTileWorker) {
  trace::Counter& crossings = trace::MetricsRegistry::instance().counter(
      "pipeline.worker.crossings");
  const std::uint64_t before = crossings.value();
  // Seeded violation: a thread wearing the tile-worker role initiates a
  // persona switch (to its own persona — the guard counts the crossing
  // regardless of destination).
  const kernel::Persona current =
      kernel::Kernel::instance().current_thread().persona();
  {
    util::ScopedThreadRole role(util::ThreadRole::kTileWorker);
    kernel::sys_set_persona(current);
  }
  EXPECT_GT(crossings.value(), before);

  // A multi diplomat crosses through the same procedure, so the same gate
  // counts it: the diplomat itself plus its two persona switches.
  const std::uint64_t before_multi = crossings.value();
  {
    util::ScopedThreadRole role(util::ThreadRole::kTileWorker);
    (void)ios_gl::eglbridge::aegl_bridge_make_current(nullptr);
  }
  EXPECT_EQ(crossings.value(), before_multi + 3);

  Report report;
  check_pipeline_isolation(report);
  EXPECT_TRUE(report.has_rule("pipeline.worker-crossing"));

  // Zeroed again, the checker runs clean (hygiene for single-process runs).
  crossings.set(0);
  Report clean;
  check_pipeline_isolation(clean);
  EXPECT_FALSE(clean.has_rule("pipeline.worker-crossing"));
}

TEST_F(AnalyzeTest, DetectsSkipOnNonDataDependentDiplomat) {
  core::DiplomatEntry& entry =
      make_entry("test_direct_skip", core::DiplomatPattern::kDirect);
  core::diplomat_skip(entry);  // a kDirect entry answering on the iOS side

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.illegal-skip"));
}

TEST_F(AnalyzeTest, DetectsCallPathBypassingTheProcedure) {
  core::DiplomatEntry& entry =
      make_entry("test_manual_call", core::DiplomatPattern::kDirect);
  entry.calls.fetch_add(1);  // bumped without diplomat_call/diplomat_skip

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.call-accounting"));
}

TEST_F(AnalyzeTest, DetectsInvokedUnimplementedDiplomat) {
  core::DiplomatEntry& entry =
      make_entry("glShaderBinary", core::DiplomatPattern::kUnimplemented);
  core::diplomat_call(entry, {}, [] {});

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.unimplemented-invoked"));
}

TEST_F(AnalyzeTest, DetectsPatternConflict) {
  (void)make_entry("test_conflict", core::DiplomatPattern::kDirect);
  (void)make_entry("test_conflict", core::DiplomatPattern::kMulti);

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.pattern-conflict"));
}

TEST_F(AnalyzeTest, DetectsClassificationMismatch) {
  // glLogicOp is kUnimplemented in the Table 2 universe; registering and
  // calling it as kDirect must be reported. (The registry is process-
  // lifetime: if another test already registered the entry under its true
  // pattern, the disagreement surfaces as a pattern conflict or an invoked-
  // unimplemented finding instead — any of the three flags the bug.)
  core::DiplomatEntry& entry =
      make_entry("glLogicOp", core::DiplomatPattern::kDirect);
  core::diplomat_call(entry, {}, [] {});

  Report report;
  check_diplomat_contracts(report);
  EXPECT_TRUE(report.has_rule("diplomat.classification-mismatch") ||
              report.has_rule("diplomat.pattern-conflict") ||
              report.has_rule("diplomat.unimplemented-invoked"));
}

// --- Lock-order violations (seeded) -----------------------------------------

TEST_F(AnalyzeTest, DetectsLockOrderInversion) {
  util::LockOrderGraph::instance().set_recording(true);
  util::OrderedMutex high(util::LockLevel::kMetrics, "test.high");
  util::OrderedMutex low(util::LockLevel::kLinker, "test.low");
  {
    // Wrong way round: level 70 held while acquiring level 10.
    std::lock_guard hold_high(high);
    std::lock_guard hold_low(low);
  }

  Report report;
  check_lock_order(report);
  EXPECT_TRUE(report.has_rule("locks.order-inversion"));
}

TEST_F(AnalyzeTest, DetectsCycleInAcquisitionGraph) {
  util::LockOrderGraph::instance().set_recording(true);
  // Seed the two interleavings through the recording API rather than by
  // really holding the mutexes both ways round — actually deadlock-shaped
  // locking would (correctly) trip TSan's own deadlock detector.
  int low = 0, high = 0;
  using util::lock_detail::note_acquired;
  using util::lock_detail::note_released;
  note_acquired(&low, 10, "test.low", false);
  note_acquired(&high, 70, "test.high", false);  // 10 -> 70, legal
  note_released(&high);
  note_released(&low);
  note_acquired(&high, 70, "test.high", false);
  note_acquired(&low, 10, "test.low", false);  // 70 -> 10 closes the cycle
  note_released(&low);
  note_released(&high);

  Report report;
  check_lock_order(report);
  EXPECT_TRUE(report.has_rule("locks.cycle"));
  EXPECT_TRUE(report.has_rule("locks.order-inversion"));
}

// --- DLR replica isolation violations (seeded) ------------------------------

int g_leaky_shared = 0;  // deliberately shared across "replicas"

class LeakyLib : public linker::LibraryInstance {
 public:
  void* symbol(std::string_view name) override {
    // Bug under test: a function-static-style global that every loaded
    // copy resolves to the same address.
    if (name == "leaky_global") return &g_leaky_shared;
    return nullptr;
  }
  std::vector<std::string> exported_symbols() const override {
    return {"leaky_global"};
  }
};

class IsolatedLib : public linker::LibraryInstance {
 public:
  void* symbol(std::string_view name) override {
    if (name == "own_global") return &own_;
    return nullptr;
  }
  std::vector<std::string> exported_symbols() const override {
    return {"own_global"};
  }

 private:
  int own_ = 0;
};

TEST_F(AnalyzeTest, DetectsSymbolSharedBetweenReplicas) {
  linker::Linker& linker = linker::Linker::instance();
  ASSERT_TRUE(linker
                  .register_image({"libleaky_test.so", {}, [](auto&) {
                                     return std::make_unique<LeakyLib>();
                                   }})
                  .is_ok());
  auto first = linker.dlforce("libleaky_test.so");
  auto second = linker.dlforce("libleaky_test.so");
  ASSERT_TRUE(first.is_ok() && second.is_ok());

  Report report;
  check_replica_isolation(report);
  EXPECT_TRUE(report.has_rule("replica.shared-address"));
}

TEST_F(AnalyzeTest, DetectsDlopenBypassingTheReplicaPath) {
  linker::Linker& linker = linker::Linker::instance();
  ASSERT_TRUE(linker
                  .register_image({"libbypass_test.so", {}, [](auto&) {
                                     return std::make_unique<IsolatedLib>();
                                   }, /*replica_aware=*/true})
                  .is_ok());
  auto replica = linker.dlforce("libbypass_test.so");
  ASSERT_TRUE(replica.is_ok());
  // With a replica live, a plain global-namespace dlopen of the same
  // library aliases replica state — the audited bypass.
  auto bypass = linker.dlopen("libbypass_test.so");
  ASSERT_TRUE(bypass.is_ok());

  Report report;
  check_replica_isolation(report);
  EXPECT_TRUE(report.has_rule("replica.bypass"));
}

class UnresolvableLib : public linker::LibraryInstance {
 public:
  void* symbol(std::string_view) override { return nullptr; }
  std::vector<std::string> exported_symbols() const override {
    return {"phantom"};
  }
};

TEST_F(AnalyzeTest, DetectsUnresolvableExportedSymbol) {
  linker::Linker& linker = linker::Linker::instance();
  ASSERT_TRUE(linker
                  .register_image({"libphantom_test.so", {}, [](auto&) {
                                     return std::make_unique<UnresolvableLib>();
                                   }})
                  .is_ok());
  auto handle = linker.dlopen("libphantom_test.so");
  ASSERT_TRUE(handle.is_ok());

  Report report;
  check_replica_isolation(report);
  EXPECT_TRUE(report.has_rule("replica.null-symbol"));
}

// --- TLS-migration completeness (seeded + positive) -------------------------

TEST_F(AnalyzeTest, DetectsKeyTheTrackerMissed) {
  // The tracker's hooks are uninstalled (as if the 12-line patch were
  // missing), but the independent audit still watches the kernel.
  core::GraphicsTlsTracker::instance().reset();
  TlsAudit::instance().install();

  core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  const kernel::TlsKey key = kernel::libc::pthread_key_create();
  core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
  ASSERT_NE(key, kernel::kInvalidTlsKey);

  Report report;
  check_tls_migration(report);
  EXPECT_TRUE(report.has_rule("tls.tracker-missed-key"));
  EXPECT_TRUE(report.has_rule("tls.unmigrated-key"));
  kernel::libc::pthread_key_delete(key);
}

TEST_F(AnalyzeTest, MigrationIsCompleteWhenTrackerSeesTheKey) {
  TlsAudit::instance().install();  // tracker installed by the system config

  core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  const kernel::TlsKey key = kernel::libc::pthread_key_create();
  core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
  ASSERT_NE(key, kernel::kInvalidTlsKey);
  int marker = 0;
  kernel::libc::pthread_setspecific(key, &marker);

  Report report;
  check_tls_migration(report);
  if (!report.clean()) report.print(std::cerr);
  EXPECT_TRUE(report.clean());
  // The probing thread's own value survived the impersonation round-trip.
  EXPECT_EQ(kernel::libc::pthread_getspecific(key), &marker);
  kernel::libc::pthread_key_delete(key);
}

// --- Source lint -------------------------------------------------------------

TEST_F(AnalyzeTest, LintFlagsRawSetPersonaOutsideKernel) {
  Report report;
  lint_source_file("src/ios_gl/rogue.cpp",
                   "void f() { kernel::sys_set_persona(p); }\n", report);
  EXPECT_TRUE(report.has_rule("lint.raw-set-persona"));
}

TEST_F(AnalyzeTest, LintAllowsSanctionedSetPersonaSites) {
  Report report;
  lint_source_file("src/kernel/kernel.cpp",
                   "long sys_set_persona(Persona p) { return 0; }\n", report);
  lint_source_file("src/core/diplomat.h",
                   "kernel::sys_set_persona(kernel::Persona::kAndroid);\n",
                   report);
  lint_source_file("src/ios_gl/ok.cpp",
                   "// a comment mentioning sys_set_persona\n"
                   "do_it();  // cycada-lint: allow(sys_set_persona here)\n",
                   report);
  EXPECT_TRUE(report.clean());
}

TEST_F(AnalyzeTest, LintFlagsRawPthreadKeyInGraphicsCode) {
  Report report;
  lint_source_file("src/glcore/rogue.cpp",
                   "auto k = pthread_key_create();\n", report);
  EXPECT_TRUE(report.has_rule("lint.raw-pthread-key"));

  Report clean;
  lint_source_file("src/glcore/fine.cpp",
                   "auto k = kernel::libc::pthread_key_create();\n", clean);
  EXPECT_TRUE(clean.clean());
}

TEST_F(AnalyzeTest, LintFlagsBareAllowMarkerAndKeepsChecking) {
  // A bare marker is a finding AND fails to suppress the violation it sat
  // next to — both rules fire on the same line.
  Report report;
  lint_source_file("src/ios_gl/rogue.cpp",
                   "kernel::sys_set_persona(p);  // cycada-lint: allow\n",
                   report);
  EXPECT_TRUE(report.has_rule("lint.allow-without-reason"));
  EXPECT_TRUE(report.has_rule("lint.raw-set-persona"));

  Report reasoned;
  lint_source_file(
      "src/ios_gl/ok.cpp",
      "kernel::sys_set_persona(p);  // cycada-lint: allow(fixture helper)\n",
      reasoned);
  EXPECT_TRUE(reasoned.clean());
}

TEST_F(AnalyzeTest, LintFlagsUnboundedWaitInSupervisedDomains) {
  // A bare .wait( in a watchdog-supervised directory can hang forever on a
  // stalled producer — the watchdog can flag the scope but nothing inside
  // the process can unwedge the waiter.
  Report report;
  lint_source_file("src/gpu/rogue.cpp",
                   "void f() { done_cv_.wait(lock); }\n", report);
  EXPECT_TRUE(report.has_rule("watchdog.unbounded-wait"));

  Report egl;
  lint_source_file("src/android_gl/rogue.cpp",
                   "frame_cv_.wait(lock, [&] { return ready_; });\n", egl);
  EXPECT_TRUE(egl.has_rule("watchdog.unbounded-wait"));

  // The deadline-sliced form stays responsive and is the sanctioned idiom.
  Report sliced;
  lint_source_file(
      "src/gpu/fine.cpp",
      "done_cv_.wait_for(lock, std::chrono::milliseconds(5));\n", sliced);
  EXPECT_TRUE(sliced.clean());

  // Idle parking (a worker owing nothing to anyone) is legitimate when the
  // line says why.
  Report parked;
  lint_source_file("src/gpu/fine.cpp",
                   "work_cv_.wait(lock);  "
                   "// cycada-lint: allow(idle park, owes no frame)\n",
                   parked);
  EXPECT_TRUE(parked.clean());

  // Outside the supervised directories the rule never applies.
  Report elsewhere;
  lint_source_file("src/core/rogue.cpp",
                   "void f() { done_cv_.wait(lock); }\n", elsewhere);
  EXPECT_TRUE(elsewhere.clean());
}

// --- Classification universe (Table 2) ---------------------------------------

TEST(ClassificationTest, Table2CountsMatchThePaper) {
  const core::Table2Counts counts = core::count_table2();
  EXPECT_EQ(counts.direct, 312);
  EXPECT_EQ(counts.indirect, 15);
  EXPECT_EQ(counts.data_dependent, 5);
  EXPECT_EQ(counts.multi, 2);
  EXPECT_EQ(counts.unimplemented, 10);
  EXPECT_EQ(counts.total(), 344);
}

TEST(ClassificationTest, FunctionsWithPatternRoundTrip) {
  int total = 0;
  for (const core::DiplomatPattern pattern :
       {core::DiplomatPattern::kDirect, core::DiplomatPattern::kIndirect,
        core::DiplomatPattern::kDataDependent, core::DiplomatPattern::kMulti,
        core::DiplomatPattern::kUnimplemented}) {
    for (const std::string& name : core::functions_with_pattern(pattern)) {
      EXPECT_EQ(core::classify_ios_gl_function(name), pattern) << name;
      ++total;
    }
  }
  EXPECT_EQ(total, 344);
}

TEST(ClassificationTest, Table2CountsCallableDiplomats) {
  // The classified column is the paper's; the callable column counts the
  // rows of the iOS GLES table, the names an app can call today.
  const core::Table2Counts classified = core::count_table2();
  EXPECT_EQ(classified.direct, 312);
  EXPECT_EQ(classified.indirect, 15);
  EXPECT_EQ(classified.data_dependent, 5);
  EXPECT_EQ(classified.multi, 2);
  EXPECT_EQ(classified.unimplemented, 10);

  const core::Table2Counts callable =
      core::count_table2(ios_gl::dispatch_sites());
  EXPECT_EQ(callable.direct, 100);
  EXPECT_EQ(callable.indirect, 8);
  EXPECT_EQ(callable.data_dependent, 5);
  EXPECT_EQ(callable.multi, 2);
  EXPECT_EQ(callable.unimplemented, 0);
  EXPECT_EQ(callable.total(), 115);
}

// --- Classification check ----------------------------------------------------

trace::ParsedTrace synthetic_trace(
    const std::vector<trace::CytDef>& defs,
    const std::vector<trace::CytRecord>& events) {
  trace::ParsedTrace trace;
  std::memset(&trace.header, 0, sizeof(trace.header));
  std::uint32_t id = 1;
  for (const trace::CytDef& def : defs) trace.defs[id++] = def;
  trace.records = events;
  return trace;
}

trace::CytRecord synthetic_event(std::uint32_t id, trace::CytEventKind kind,
                                 std::uint8_t flags) {
  trace::CytRecord event = trace::cyt_zero_record();
  event.type = static_cast<std::uint8_t>(trace::CytRecordType::kEvent);
  event.kind = static_cast<std::uint8_t>(kind);
  event.flags = flags;
  event.id = id;
  return event;
}

TEST_F(AnalyzeTest, ClassifyScannerExtractsSiteFacts) {
  // The table's rows carry the facts the check reads: one row per name and,
  // for a forwarding row, the engine call it makes.
  const std::span<const core::DispatchSite> sites = ios_gl::dispatch_sites();
  ASSERT_EQ(sites.size(), 115u);
  std::map<std::string, const char*> engine_of;
  int custom = 0;
  for (const core::DispatchSite& site : sites) {
    EXPECT_TRUE(engine_of.emplace(site.name, site.engine_name).second)
        << site.name << " has two rows";
    if (site.engine_name == nullptr) ++custom;
  }
  EXPECT_EQ(custom, 8);

  EXPECT_STREQ(engine_of.at("glEnable"), "glEnable");
  EXPECT_STREQ(engine_of.at("glGetIntegerv"), "glGetIntegerv");
  EXPECT_STREQ(engine_of.at("glSetFenceAPPLE"), "glSetFenceNV");
  EXPECT_EQ(engine_of.at("glGetString"), nullptr);  // hand-written body
  EXPECT_EQ(engine_of.at("glTexSubImage2D"), nullptr);
}

TEST_F(AnalyzeTest, ClassifyRunsCleanOnTheRealTree) {
  Report report;
  check_classification(ios_gl::dispatch_sites(), {}, report);
  if (!report.clean()) report.print(std::cerr);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(ios_gl::dispatch_sites().size(), 115u);
}

TEST_F(AnalyzeTest, ClassifyFlagsSignatureMismatches) {
  // Three seeded rows, one finding each: an engine redirect under kDirect,
  // a row outside the Table 2 universe, and a row on a kUnimplemented name.
  // The indirect redirect and the custom row are legal and stay quiet.
  const core::DispatchSite rows[] = {
      {"glFinish", "glFlush"},
      {"glNotInTheUniverse", "glNotInTheUniverse"},
      {"glLogicOp", "glLogicOp"},
      {"glSetFenceAPPLE", "glSetFenceNV"},
      {"glGetString", nullptr},
  };
  Report report;
  check_classification(rows, {}, report);
  const auto findings = report.by_checker("classify");
  ASSERT_EQ(findings.size(), 3u);
  std::set<std::string> subjects;
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "classify.signature-mismatch");
    subjects.insert(finding.subject);
  }
  EXPECT_EQ(subjects, (std::set<std::string>{"glFinish", "glNotInTheUniverse",
                                             "glLogicOp"}));
}

TEST_F(AnalyzeTest, ClassifyFlagsCorpusContradictions) {
  // A corpus whose defs disagree with this build's classifier: glClear
  // recorded as indirect and glDeleteTextures (multi in Table 2) recorded
  // as direct. glEnable is recorded right, and its legacy batched-call
  // record is read as a plain call, not as a contradiction.
  const trace::ParsedTrace trace = synthetic_trace(
      {{"glClear",
        static_cast<std::uint8_t>(core::DiplomatPattern::kIndirect)},
       {"glDeleteTextures",
        static_cast<std::uint8_t>(core::DiplomatPattern::kDirect)},
       {"glEnable", static_cast<std::uint8_t>(core::DiplomatPattern::kDirect)}},
      {synthetic_event(1, trace::CytEventKind::kCall, 0),
       synthetic_event(2, trace::CytEventKind::kCall, 0),
       synthetic_event(3, trace::CytEventKind::kBatchedCall,
                       trace::kCytFlagVoidReturn | trace::kCytFlagScalarArgs)});
  Report report;
  check_classification(ios_gl::dispatch_sites(), {&trace}, report);
  const auto findings = report.by_checker("classify");
  EXPECT_EQ(findings.size(), 2u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "classify.corpus-contradiction") << finding.subject;
    EXPECT_NE(finding.subject, "glEnable");
  }
}

TEST_F(AnalyzeTest, SeededMisclassificationCaughtByBothSources) {
  // Seed one misclassification into both sources: glDrawArrays (direct in
  // Table 2) is treated as another pattern.
  // Source A: a copy of the real rows whose glDrawArrays row re-arranges
  // its inputs onto another engine call, the shape of an indirect diplomat.
  const std::span<const core::DispatchSite> real = ios_gl::dispatch_sites();
  std::vector<core::DispatchSite> rows(real.begin(), real.end());
  bool seeded = false;
  for (core::DispatchSite& row : rows) {
    if (std::string(row.name) == "glDrawArrays") {
      row.engine_name = "glDrawElements";
      seeded = true;
    }
  }
  ASSERT_TRUE(seeded);
  Report static_report;
  check_classification(rows, {}, static_report);
  bool static_caught = false;
  for (const Finding& finding : static_report.by_checker("classify")) {
    if (finding.rule == "classify.signature-mismatch" &&
        finding.message.find("glDrawArrays") != std::string::npos) {
      static_caught = true;
    }
  }
  EXPECT_TRUE(static_caught);
  EXPECT_EQ(static_report.by_checker("classify").size(), 1u);

  // Source B: a corpus recorded by a build that classified glDrawArrays as
  // data-dependent contradicts this build's classifier.
  const trace::ParsedTrace trace = synthetic_trace(
      {{"glDrawArrays",
        static_cast<std::uint8_t>(core::DiplomatPattern::kDataDependent)}},
      {synthetic_event(1, trace::CytEventKind::kSkip, 0)});
  Report corpus_report;
  check_classification(ios_gl::dispatch_sites(), {&trace}, corpus_report);
  EXPECT_TRUE(corpus_report.has_rule("classify.corpus-contradiction"));
}

// --- Session isolation (docs/SESSIONS.md) ----------------------------------

TEST_F(AnalyzeTest, DetectsCrossSessionAccess) {
  core::SessionRegistry& registry = core::SessionRegistry::instance();
  registry.clear_cross_leak_evidence();
  auto a = registry.create("leak-a");
  auto b = registry.create("leak-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  // Materialize session B's kernel, then touch it from a thread bound to
  // session A — the exact bug class the rule exists for.
  kernel::Kernel* b_kernel = nullptr;
  {
    core::SessionScope scope(**b);
    b_kernel = &kernel::Kernel::instance();
  }
  {
    core::SessionScope scope(**a);
    b_kernel->register_current_thread(kernel::Persona::kIos);
  }

  Report report;
  check_session_isolation(report);
  EXPECT_TRUE(report.has_rule("session.cross-leak"));

  registry.clear_cross_leak_evidence();
  Report clean;
  check_session_isolation(clean);
  EXPECT_FALSE(clean.has_rule("session.cross-leak"));

  registry.destroy(*a);
  registry.destroy(*b);
}

TEST_F(AnalyzeTest, SessionBoundWorkloadStaysClean) {
  core::SessionRegistry& registry = core::SessionRegistry::instance();
  registry.clear_cross_leak_evidence();
  auto session = registry.create("clean-fleet");
  ASSERT_TRUE(session.is_ok());
  {
    // A well-behaved fleet member: binds, registers with its *own* kernel,
    // renders against its own facet stack.
    core::SessionScope scope(**session);
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    core::GraphicsTlsTracker::instance().install();
    auto port = glport::make_ios_port();
    ASSERT_TRUE(port->init(32, 32, 1).is_ok());
    port->begin_frame();
    port->clear_color(0.2f, 0.4f, 0.6f, 1.0f);
    port->clear(glcore::GL_COLOR_BUFFER_BIT);
    ASSERT_TRUE(port->present().is_ok());
  }
  Report report;
  check_session_isolation(report);
  EXPECT_FALSE(report.has_rule("session.cross-leak"));
  registry.destroy(*session);
}

}  // namespace
}  // namespace cycada::analyze
