// Serializes the span and instant records of a .cyt capture as Chrome
// trace-event JSON ("JSON array with metadata" flavor), loadable in
// chrome://tracing and Perfetto.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>

#include "trace/trace.h"

namespace cycada::trace {

namespace {
void append_escaped(std::string& out, std::string_view text) {
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void append_event(std::string& out, const CytRecord& record) {
  const bool span =
      record.kind == static_cast<std::uint8_t>(CytEventKind::kSpan);
  char buffer[64];
  out += "{\"name\":\"";
  append_escaped(out, cyt_span_name(record));
  out += "\",\"cat\":\"";
  append_escaped(out, cyt_span_category(record));
  out += "\",\"ph\":\"";
  out += span ? 'X' : 'i';
  out += '"';
  if (!span) out += ",\"s\":\"t\"";
  // Chrome expects microseconds; keep nanosecond precision as decimals.
  std::snprintf(buffer, sizeof buffer, ",\"ts\":%.3f",
                static_cast<double>(record.timestamp_ns) / 1000.0);
  out += buffer;
  if (span) {
    std::snprintf(buffer, sizeof buffer, ",\"dur\":%.3f",
                  static_cast<double>(record.aux) / 1000.0);
    out += buffer;
  }
  std::snprintf(buffer, sizeof buffer, ",\"pid\":1,\"tid\":%" PRIu32 "}",
                record.tid);
  out += buffer;
}
}  // namespace

std::string chrome_trace_json(const ParsedTrace& trace) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const CytRecord& record : trace.records) {
    if (!cyt_is_span(record)) continue;
    if (!first) out += ',';
    first = false;
    append_event(out, record);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status write_chrome_trace(const std::string& path, const ParsedTrace& trace) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::internal("cannot open trace output: " + path);
  }
  const std::string json = chrome_trace_json(trace);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  if (written != json.size()) {
    return Status::internal("short write to trace output: " + path);
  }
  return Status::ok();
}

}  // namespace cycada::trace
