// Source lint: the purely static half of cycada-check. A compiled scanner
// (no shell, no regex engine) over the source tree that enforces the two
// textual contracts the runtime checkers cannot see:
//
//  * persona switches happen only inside the kernel, the diplomat
//    procedure, or the ScopedPersona RAII guard — a raw sys_set_persona()
//    elsewhere is exactly the unbalanced-persona bug class;
//  * graphics code reserves TLS slots only through kernel::libc::, because
//    a raw pthread_key_create would dodge the kernel hooks the graphics-TLS
//    tracker (and therefore impersonation migration) depends on.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/analyze.h"

namespace cycada::analyze {

namespace {

// Built by concatenation so the scanner never flags its own sources.
const std::string kSetPersonaNeedle = std::string("sys_set_") + "persona";
const std::string kKeyCreateNeedle = std::string("pthread_key_") + "create";
const std::string kKeyDeleteNeedle = std::string("pthread_key_") + "delete";
const std::string kAllowMarker = std::string("cycada-lint: ") + "allow";
const std::string kWaitNeedle = std::string(".wa") + "it(";

bool path_contains(const std::string& path, const char* fragment) {
  return path.find(fragment) != std::string::npos;
}

// Files allowed to switch personas directly: the kernel (defines the
// syscall and the ScopedPersona guard) and the diplomat procedure itself.
bool set_persona_allowed(const std::string& path) {
  return path_contains(path, "kernel/") ||
         path_contains(path, "core/diplomat.h") ||
         path_contains(path, "analyze/");
}

// Directories whose TLS keys must be graphics-tracked.
bool in_graphics_path(const std::string& path) {
  return path_contains(path, "glcore/") || path_contains(path, "gpu/") ||
         path_contains(path, "gmem/") || path_contains(path, "android_gl/") ||
         path_contains(path, "ios_gl/") || path_contains(path, "glport/") ||
         path_contains(path, "iosurface/") ||
         path_contains(path, "dispatch/") ||
         (path_contains(path, "core/") && !path_contains(path, "glcore/"));
}

bool comment_only(const std::string& line) {
  const std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return true;
  return line.compare(start, 2, "//") == 0 ||
         line.compare(start, 2, "/*") == 0 || line[start] == '*';
}

// True when every occurrence of `needle` in `line` is immediately preceded
// by "libc::" (the sanctioned facade).
bool all_via_libc(const std::string& line, const std::string& needle) {
  static const std::string kFacade = "libc::";
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (pos < kFacade.size() ||
        line.compare(pos - kFacade.size(), kFacade.size(), kFacade) != 0) {
      return false;
    }
    pos += needle.size();
  }
  return true;
}

// A reasoned "cycada-lint: allow(<reason>)" marker suppresses this line's
// findings; a bare marker suppresses nothing and is itself a finding (it
// silences a checker without recording why). Returns true when the line is
// exempt from the other rules.
bool handle_allow_marker(const std::string& path, int line_number,
                         const std::string& line, Report& report) {
  const std::size_t marker = line.find(kAllowMarker);
  if (marker == std::string::npos) return false;
  const std::size_t after = marker + kAllowMarker.size();
  if (after < line.size() && line[after] == '(' &&
      line.find(')', after + 1) != std::string::npos &&
      line.find(')', after + 1) > after + 1) {
    return true;
  }
  report.add("lint", "lint.allow-without-reason",
             path + ":" + std::to_string(line_number),
             "bare \"" + kAllowMarker +
                 "\" marker; suppressions must carry a justification: \"" +
                 kAllowMarker + "(<reason>)\"");
  return false;
}

void lint_line(const std::string& path, int line_number,
               const std::string& line, Report& report) {
  const std::string subject = path + ":" + std::to_string(line_number);

  if (!set_persona_allowed(path) &&
      line.find(kSetPersonaNeedle) != std::string::npos) {
    report.add("lint", "lint.raw-set-persona", subject,
               "raw " + kSetPersonaNeedle +
                   " outside the kernel/diplomat layers; use "
                   "kernel::ScopedPersona or a diplomat");
  }

  // Watchdog-supervised directories must not block without a deadline: a
  // bare .wait( (condition_variable or C++20 atomic) can hang forever on a
  // stalled producer, where a wait_for slice stays responsive and lets the
  // enclosing WATCHDOG_SCOPE escalate. Idle parking (a worker with nothing
  // owed to anyone) is legitimate and carries a reasoned allow marker.
  if ((path_contains(path, "gpu/") || path_contains(path, "android_gl/")) &&
      line.find(kWaitNeedle) != std::string::npos) {
    report.add("lint", "watchdog.unbounded-wait", subject,
               "indefinite wait in a watchdog-supervised domain; use a "
               "deadline-sliced wait_for loop (or justify idle parking "
               "with a reasoned allow marker)");
  }

  if (in_graphics_path(path) && !path_contains(path, "analyze/")) {
    const bool create = line.find(kKeyCreateNeedle) != std::string::npos;
    const bool destroy = line.find(kKeyDeleteNeedle) != std::string::npos;
    if ((create && !all_via_libc(line, kKeyCreateNeedle)) ||
        (destroy && !all_via_libc(line, kKeyDeleteNeedle))) {
      report.add("lint", "lint.raw-pthread-key", subject,
                 "graphics code must reserve TLS keys via kernel::libc:: "
                 "so the key-creation hooks fire and the graphics-TLS "
                 "tracker sees the key");
    }
  }
}

bool lintable_file(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

}  // namespace

void lint_source_file(const std::string& path, const std::string& contents,
                      Report& report) {
  std::istringstream stream(contents);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (comment_only(line)) continue;
    const bool exempt = handle_allow_marker(path, line_number, line, report);
    if (!exempt) lint_line(path, line_number, line, report);
  }
}

bool lint_source_tree(const std::string& root, Report& report) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    report.add("lint", "lint.bad-root", root,
               "lint root is not a readable directory");
    return false;
  }
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root, ec)) {
    if (ec) break;
    if (!entry.is_regular_file() || !lintable_file(entry.path())) continue;
    std::ifstream file(entry.path());
    std::ostringstream contents;
    contents << file.rdbuf();
    lint_source_file(entry.path().generic_string(), contents.str(), report);
  }
  return true;
}

}  // namespace cycada::analyze
