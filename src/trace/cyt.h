// The .cyt trace format and the process's one event recorder.
//
// A .cyt file is a machine-replayable record of every diplomat crossing:
// diplomat id/name/pattern, direction (caller persona), thread,
// EAGLContext + impersonation annotations, monotonic timestamps and scalar
// arguments. tools/cycada_replay re-drives a captured stream through the
// real dispatch/persona machinery as load, and analyze::check_trace mines
// it for classification errors (docs/TRACING.md).
// The human timeline rides in the same file: TRACE_SCOPE / TRACE_INSTANT
// (trace/trace.h) write span and instant records into the same per-thread
// chunks, and chrome_trace_json() exports them for chrome://tracing.
//
// On-disk layout (little-endian, the build's native byte order):
//   CytHeader   32 bytes   magic "CYTR", version, record size, start time
//   CytRecord × N, 128 bytes each, fixed size (version 1)
//   CytFooter   32 bytes   magic "RTYC", record count, FNV-1a checksum
// Records are either defs (first sighting of a diplomat id: name, pattern)
// or events (one crossing / marker / span). Defs are inline — a trace is
// self-describing and needs no side table.
//
// The recorder gives every producing thread its own chunk of records
// (claimed from a preallocated pool under a mutex once per kRecordsPerChunk
// events, never per event) and drains full chunks on one writer thread.
// The hot path is wait-free and share-nothing: no atomic RMW, no cache
// line any other core writes; the 128-byte record is one memcpy into the
// thread's own chunk, and crossing timestamps come from a per-thread coarse
// stamp refreshed every few events instead of a clock read per record.
// When the pool is exhausted the record is dropped and counted (the footer
// carries the drop count).
// Enable with CYCADA_TRACE_CAPTURE=<path> (crossings), CYCADA_TRACE=<json>
// (crossings + spans) or TraceRecorder::start().
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cycada::trace {

inline constexpr char kCytMagic[4] = {'C', 'Y', 'T', 'R'};
inline constexpr char kCytFooterMagic[4] = {'R', 'T', 'Y', 'C'};
inline constexpr std::uint32_t kCytVersion = 1;
// Width of a record's args field. Older builds stored up to six scalar
// call arguments there (arg_count kept the true arity); events now leave
// args and arg_count zero, and span records keep their category in args.
inline constexpr int kCytMaxArgs = 6;
inline constexpr std::size_t kCytNameChars = 47;
// id used by marker records (context/impersonation), which define nothing.
inline constexpr std::uint32_t kCytMarkerId = 0xfffffffeu;
// id used by span and instant records (TRACE_SCOPE / TRACE_INSTANT).
inline constexpr std::uint32_t kCytSpanId = 0xfffffffdu;

enum class CytRecordType : std::uint8_t {
  kDef = 1,    // kind = DiplomatPattern, name valid
  kEvent = 2,  // kind = CytEventKind
};

enum class CytEventKind : std::uint8_t {
  kCall = 1,         // plain single-call diplomat procedure
  kSkip = 2,         // data-dependent call answered on the iOS side
  kMulti = 3,        // the same procedure on a kMulti diplomat
  // Kinds 4 and 5 are legacy: older captures wrote them for calls that
  // shared one crossing and for the crossing that closed the group. No
  // build writes them; readers take a kBatchedCall as a plain call and
  // skip a kBatchFlush.
  kBatchedCall = 4,
  kBatchFlush = 5,
  kContextSet = 6,   // EAGLContext made current (context_id = new context)
  kImpersonate = 7,  // thread impersonation started (aux=1) / ended (aux=0)
  kSpan = 8,         // TRACE_SCOPE span (timestamp = exact start, aux =
                     // duration ns, saturating at ~4.29 s)
  kInstant = 9,      // TRACE_INSTANT point event (exact timestamp)
};

// Event flags. Defs carry none; bit 0 of a def's flags (the batchable bit
// of older captures) is ignored on read. Bits 1 and 2 (void return, only
// scalar arguments) are written only by older builds; no reader uses them.
inline constexpr std::uint8_t kCytFlagImpersonating = 1u << 0;
inline constexpr std::uint8_t kCytFlagVoidReturn = 1u << 1;
inline constexpr std::uint8_t kCytFlagScalarArgs = 1u << 2;

struct CytHeader {
  char magic[4];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t reserved;
  std::int64_t start_ns;  // capture start, same clock as record timestamps
  std::uint64_t reserved2;
};
static_assert(sizeof(CytHeader) == 32, "CytHeader layout is part of the ABI");

struct CytRecord {
  std::uint8_t type;     // CytRecordType
  std::uint8_t kind;     // CytEventKind or DiplomatPattern (defs)
  std::uint8_t persona;  // caller persona (kernel::Persona numbering)
  std::uint8_t flags;
  std::uint32_t id;   // DiplomatId; kCytMarkerId for marker events
  std::uint32_t tid;  // capture-local thread ordinal
  std::uint32_t aux;  // kind-specific (duration ns / impersonation edge)
  std::int64_t timestamp_ns;
  std::uint64_t context_id;  // current EAGLContext identity, 0 = none
  double args[kCytMaxArgs];      // span category; zero in events
  std::uint8_t arg_count;        // zero (older builds: true arity)
  char name[kCytNameChars];      // defs only, NUL padded
};
static_assert(sizeof(CytRecord) == 128, "CytRecord layout is part of the ABI");

struct CytFooter {
  char magic[4];
  std::uint32_t reserved;
  std::uint64_t record_count;
  std::uint64_t checksum;  // FNV-1a over each record's 64-bit words, in order
  std::uint64_t dropped;   // records lost to an exhausted pool during capture
};
static_assert(sizeof(CytFooter) == 32, "CytFooter layout is part of the ABI");

inline constexpr std::uint64_t kCytChecksumSeed = 0xcbf29ce484222325ull;
std::uint64_t cyt_checksum_update(std::uint64_t hash, const CytRecord& record);

// A fully zeroed record (the format requires deterministic padding so a
// read-rewrite round trip is byte identical).
inline CytRecord cyt_zero_record() {
  CytRecord record;
  std::memset(&record, 0, sizeof(record));
  return record;
}

// Span and instant records share the chunks with crossings but are the
// human timeline only.
inline bool cyt_is_span(const CytRecord& record) {
  return record.id == kCytSpanId;
}
// Crossing and marker events: the stream replay, the miner and the corpus
// reader walk. Spans are left out.
inline bool cyt_is_stream_event(const CytRecord& record) {
  return record.type == static_cast<std::uint8_t>(CytRecordType::kEvent) &&
         !cyt_is_span(record);
}
// A span's category lives in its args bytes and its name in `name` (spans
// carry no arguments); both are NUL padded and need not be terminated.
inline std::string_view cyt_span_category(const CytRecord& record) {
  const char* text = reinterpret_cast<const char*>(record.args);
  return {text, strnlen(text, sizeof(record.args))};
}
inline std::string_view cyt_span_name(const CytRecord& record) {
  return {record.name, strnlen(record.name, sizeof(record.name))};
}

// --- Reading ----------------------------------------------------------------

struct CytDef {
  std::string name;
  std::uint8_t pattern = 0;  // core::DiplomatPattern numbering
};

struct ParsedTrace {
  CytHeader header;
  std::uint64_t dropped = 0;
  std::vector<CytRecord> records;  // defs and events, in capture order
  std::map<std::uint32_t, CytDef> defs;

  const CytDef* def(std::uint32_t id) const {
    auto it = defs.find(id);
    return it == defs.end() ? nullptr : &it->second;
  }
  // Wall time the capture spans (last event timestamp - header start).
  std::int64_t duration_ns() const;
};

// Loads and validates a .cyt file. Truncated files, checksum mismatches and
// unknown versions are rejected with a Status naming the defect.
StatusOr<ParsedTrace> read_cyt(const std::string& path);

// Serializes `records` with the given header (start_ns is preserved); the
// footer is recomputed. read_cyt(write_cyt(read_cyt(f))) is byte-identical
// to f when f carried the same drop count.
Status write_cyt(const std::string& path, const CytHeader& header,
                 const std::vector<CytRecord>& records,
                 std::uint64_t dropped = 0);

// --- Capture ----------------------------------------------------------------

// Global capture gate: one relaxed load on the diplomat hot path when off.
inline std::atomic<bool> g_cyt_capture_enabled{false};
inline bool capture_enabled() {
  return g_cyt_capture_enabled.load(std::memory_order_relaxed);
}
// Span gate: on only while a capture started with spans runs. TRACE_SCOPE
// and TRACE_INSTANT cost one relaxed load and a branch when it is off.
inline std::atomic<bool> g_cyt_spans_enabled{false};
inline bool spans_enabled() {
  return g_cyt_spans_enabled.load(std::memory_order_relaxed);
}

// Records one diplomat event. Emits the diplomat's def record inline on its
// first appearance in the capture.
// Callers that already hold a fresh now_ns() pass it as `timestamp_ns` to
// spare the hot path a second clock read; 0 reads the clock here.
void capture_diplomat_event(CytEventKind kind, std::uint32_t id,
                            std::string_view name, std::uint8_t pattern,
                            std::uint8_t persona, std::uint32_t aux,
                            std::int64_t timestamp_ns = 0);

// Annotation markers. They update the thread-local state stamped onto every
// later event on this thread and, while capture is on, write marker records.
void capture_set_context(std::uint64_t context_id);
void capture_set_impersonating(bool active);

// Span and instant records (the TRACE_SCOPE / TRACE_INSTANT back end).
// `category` and `name` are copied, truncated to their fields.
void capture_span(const char* category, const char* name,
                  std::int64_t start_ns, std::int64_t duration_ns);
void capture_instant(const char* category, const char* name);

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  // Opens `path`, writes the header and starts the writer thread; with
  // `spans` the span gate opens too. Fails if a capture is already running.
  Status start(const std::string& path, bool spans = false);
  // Drains the chunks, writes the footer and closes the file. No-op when
  // idle.
  Status stop();
  bool active() const { return active_.load(std::memory_order_acquire); }

  // Records accepted so far (exact once the capture stops; during capture
  // it walks the chunk lists under a mutex, so keep it off hot paths).
  std::uint64_t recorded() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Appends one record to the calling thread's chunk (wait-free; drops
  // when the pool is exhausted). Timestamps are the caller's
  // responsibility.
  void push(const CytRecord& record);

 private:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  struct Chunk;
  struct Impl;  // file, writer thread, chunk pool (out of the hot path)

  void writer_loop();
  void drain_full_chunks();  // writer thread, then stop() after the join
  void write_records(const CytRecord* records, std::size_t count);
  // Retires `retired` (may be null) and claims a fresh chunk for `tid`;
  // null when the pool is exhausted. Takes the chunk mutex — called once
  // per kRecordsPerChunk records, never per record.
  Chunk* rotate_chunk(Chunk* retired, std::uint32_t tid);

  // The push path only LOADS these (plus its own thread-local chunk), so
  // there is no producer-side cache line any other core dirties.
  std::atomic<std::uint64_t> epoch_{0};  // bumped per start(); stales TLS
  std::atomic<bool> active_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> dropped_{0};

  Impl* impl_ = nullptr;
};

}  // namespace cycada::trace
