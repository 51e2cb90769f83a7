#include "core/diplomat.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "core/session.h"

namespace cycada::core {

namespace {

// Per-thread one-entry lookup cache for name-based callers (call sites that
// pass the same name every time). A hit is validated against the cached
// entry's own immortal name — never against a caller pointer remembered
// from a previous call, which could be a freed buffer reallocated for a
// different, same-length name. Keyed on the requested pattern too, so a
// call site that disagrees with the registered classification keeps going
// through the table path where the conflict is counted — and on the bound
// session (normalized: default and unbound both key as nullptr), so a
// thread rebound to a session whose fork shadows the name cannot be served
// a stale shared entry.
struct LookupCache {
  DiplomatPattern pattern = DiplomatPattern::kDirect;
  DiplomatEntry* entry = nullptr;
  const Session* session = nullptr;
  // Session ids are never reused, so pointer + id together survive session
  // churn: a new session constructed at a recycled address cannot be served
  // the dead session's shadow.
  std::uint32_t session_id = 0;
};
thread_local LookupCache t_lookup_cache;

// A session's private dispatch fork (COW): null until the session's first
// register_session_local() copies the shared table. Lives as a session
// facet; destroying the session epoch-retires the final fork so readers
// still pinned on it survive the teardown.
struct SessionDispatchFork {
  std::atomic<const DispatchTable*> table{nullptr};
  ~SessionDispatchFork() {
    const DispatchTable* last =
        table.exchange(nullptr, std::memory_order_acq_rel);
    if (last != nullptr) util::EpochReclaimer::instance().retire(last);
  }
};

SessionDispatchFork& fork_of(Session& session) {
  return session.facet<SessionDispatchFork>(
      +[] { return new SessionDispatchFork(); });
}

// The bound session, normalized for dispatch: the default session and an
// unbound thread both read the shared table, so both key as nullptr.
Session* dispatch_session() {
  Session* session = Session::bound();
  if (session == nullptr || session->is_default()) return nullptr;
  return session;
}

// Word-at-a-time multiplicative hash: two multiplies for a typical GL name
// instead of one per byte, and good enough for a half-full table of a few
// hundred names (probes verify with a full compare anyway).
std::uint64_t hash_name(std::string_view name) {
  constexpr std::uint64_t kMul = 0x9ddfea08eb382d69ull;
  std::uint64_t hash = 1469598103934665603ull ^ name.size();
  while (name.size() >= 8) {
    std::uint64_t word;
    std::memcpy(&word, name.data(), 8);
    hash = (hash ^ word) * kMul;
    name.remove_prefix(8);
  }
  // Byte-assembled tail: a std::memcpy with a runtime size here compiles to
  // a real libc call and dominates the whole hash.
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(name[i]))
            << (8 * i);
  }
  hash = (hash ^ tail) * kMul;
  return hash ^ (hash >> 32);
}

// Rebuilds a table's hash index: power-of-two sized, at most half full, so
// linear probing stays short and lookups are O(1). Buckets hold positions.
void build_buckets(DispatchTable& table) {
  std::uint32_t bucket_count = 16;
  while (bucket_count < 2 * table.entries.size()) bucket_count *= 2;
  table.bucket_mask = bucket_count - 1;
  table.buckets.assign(bucket_count, kInvalidDiplomatId);
  for (std::uint32_t pos = 0;
       pos < static_cast<std::uint32_t>(table.entries.size()); ++pos) {
    std::uint32_t bucket =
        static_cast<std::uint32_t>(hash_name(table.entries[pos]->name)) &
        table.bucket_mask;
    while (table.buckets[bucket] != kInvalidDiplomatId) {
      bucket = (bucket + 1) & table.bucket_mask;
    }
    table.buckets[bucket] = pos;
  }
}

}  // namespace

DiplomatEntry* DispatchTable::find_entry(std::string_view name) const {
  if (buckets.empty()) return nullptr;
  for (std::uint32_t bucket =
           static_cast<std::uint32_t>(hash_name(name)) & bucket_mask;
       ; bucket = (bucket + 1) & bucket_mask) {
    const std::uint32_t pos = buckets[bucket];
    if (pos == kInvalidDiplomatId) return nullptr;
    if (entries[pos]->name == name) return entries[pos];
  }
}

DiplomatId DispatchTable::find(std::string_view name) const {
  const DiplomatEntry* entry = find_entry(name);
  return entry == nullptr ? kInvalidDiplomatId : entry->id;
}

DiplomatRegistry& DiplomatRegistry::instance() {
  static DiplomatRegistry* registry = new DiplomatRegistry();
  return *registry;
}

DiplomatRegistry::DiplomatRegistry() {
  // Publish an empty table so readers never see null.
  table_.store(new DispatchTable(), std::memory_order_release);
}

void DiplomatRegistry::reset() {
  // Entries are process-lifetime: call sites cache DiplomatEntry references
  // and DiplomatIds (the paper's step-1 symbol cache), so entries must
  // never be destroyed. Reset only clears statistics — over owned_, which
  // holds every entry (shared and session-local forks alike).
  std::lock_guard lock(writer_mutex_);
  for (const auto& entry : owned_) {
    entry->calls.store(0);
    entry->latency.reset();
    entry->contract.reset();
  }
  profiling_.store(false);
}

DiplomatEntry& DiplomatRegistry::entry(std::string_view name,
                                       DiplomatPattern pattern) {
  Session* session = dispatch_session();
  LookupCache& cache = t_lookup_cache;
  const std::uint32_t session_id = session == nullptr ? 0 : session->id();
  if (cache.entry != nullptr && cache.pattern == pattern &&
      cache.session == session && cache.session_id == session_id &&
      cache.entry->name == name) {
    return *cache.entry;
  }
  DiplomatEntry* found = nullptr;
  {
    // Pin while probing the tables: a concurrent registration may retire
    // one. Entries themselves are immortal, so `found` stays valid past the
    // pin. A session with a fork probes it first (local entries shadow
    // shared names); names registered in the shared table after the fork
    // was taken resolve through the shared probe below.
    util::EpochReclaimer::Guard guard;
    if (session != nullptr) {
      if (const DispatchTable* fork =
              fork_of(*session).table.load(std::memory_order_acquire)) {
        found = fork->find_entry(name);
      }
    }
    if (found == nullptr) {
      found = table_.load(std::memory_order_acquire)->find_entry(name);
    }
  }
  if (found == nullptr) found = &register_slow(name, pattern);
  if (found->pattern != pattern) {
    // Two call sites disagree on this function's classification; the first
    // registration wins, the checker reports the conflict. Deliberately not
    // cached so every mismatched lookup is counted, like the locked design.
    found->contract.pattern_conflicts.fetch_add(1, std::memory_order_relaxed);
    return *found;
  }
  cache = {pattern, found, session, session_id};
  return *found;
}

DiplomatId DiplomatRegistry::resolve(std::string_view name,
                                     DiplomatPattern pattern) {
  return entry(name, pattern).id;
}

DiplomatEntry* DiplomatRegistry::allocate_entry_locked(std::string_view name,
                                                       DiplomatPattern pattern,
                                                       DiplomatId id) {
  auto entry = std::make_unique<DiplomatEntry>();
  entry->name = std::string(name);
  entry->id = id;
  entry->pattern = pattern;
  DiplomatEntry* raw = entry.get();
  owned_.push_back(std::move(entry));

  // Slot the entry into the immortal by-id segment array before anything
  // can observe its id; entry_by_id() is then valid for this id forever,
  // with no epoch pin. Segments are never replaced or freed.
  const std::size_t segment_index = raw->id >> kSegmentShift;
  assert(segment_index < kMaxSegments && "diplomat id space exhausted");
  IdSegment* segment = segments_[segment_index].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new IdSegment();
    segments_[segment_index].store(segment, std::memory_order_release);
  }
  segment->slots[raw->id & (kSegmentSize - 1)].store(
      raw, std::memory_order_release);
  return raw;
}

DiplomatEntry& DiplomatRegistry::register_slow(std::string_view name,
                                               DiplomatPattern pattern) {
  std::lock_guard lock(writer_mutex_);
  const DispatchTable* live = table_.load(std::memory_order_relaxed);
  // Re-check under the writer mutex: another thread may have registered
  // `name` between our lock-free miss and acquiring the lock.
  if (DiplomatEntry* existing = live->find_entry(name); existing != nullptr) {
    return *existing;
  }

  // Shared ids stay dense positions in the shared table; the session-local
  // id allocator descends from the top, so the two never renumber each
  // other (the assert fires long before 16k diplomats meet in the middle).
  const auto id = static_cast<DiplomatId>(live->entries.size());
  assert(id < next_session_local_id_ && "diplomat id spaces collided");
  DiplomatEntry* raw = allocate_entry_locked(name, pattern, id);

  // Copy-and-publish: build the successor table (dense array, sorted name
  // index whose views point into the immortal entry names, hash index), then
  // swap it in with a release store. Readers that loaded the old table under
  // an epoch pin keep using it; the superseded table is retired to the
  // EpochReclaimer and freed once those pins drain.
  auto next = std::make_unique<DispatchTable>();
  next->entries = live->entries;
  next->entries.push_back(raw);
  next->index = live->index;
  const std::pair<std::string_view, DiplomatId> element{
      std::string_view(raw->name), raw->id};
  next->index.insert(
      std::upper_bound(next->index.begin(), next->index.end(), element,
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       }),
      element);
  build_buckets(*next);
  table_.store(next.release(), std::memory_order_release);
  util::EpochReclaimer::instance().retire(live);
  return *raw;
}

DiplomatEntry& DiplomatRegistry::register_session_local(
    std::string_view name, DiplomatPattern pattern) {
  Session* session = dispatch_session();
  if (session == nullptr) {
    // Default session / unbound thread: there is no private view to fork —
    // the registration lands in the shared table like any other.
    return entry(name, pattern);
  }
  // Resolve the fork facet before the writer mutex: facet construction
  // takes the session's facet mutex, which must never nest inside an
  // ordered lock.
  SessionDispatchFork& fork = fork_of(*session);
  std::lock_guard lock(writer_mutex_);
  const DispatchTable* base = fork.table.load(std::memory_order_relaxed);
  const bool forked = base != nullptr;
  if (!forked) base = table_.load(std::memory_order_relaxed);
  // Re-check under the writer mutex: this session may already carry a local
  // entry for `name` (a shared entry of the same name does NOT satisfy the
  // lookup — the point of registering locally is to shadow it).
  if (DiplomatEntry* existing = base->find_entry(name);
      existing != nullptr && existing->owner == session) {
    return *existing;
  }
  assert(next_session_local_id_ >
             static_cast<DiplomatId>(
                 table_.load(std::memory_order_relaxed)->entries.size()) &&
         "diplomat id spaces collided");
  DiplomatEntry* raw =
      allocate_entry_locked(name, pattern, next_session_local_id_--);
  raw->owner = session;

  // COW: the first local registration copies the session's current view;
  // later ones copy the previous fork. Shadow in place when the name exists
  // (position keeps pointing at the session's entry, so shared-table
  // positions stay valid), append otherwise.
  auto next = std::make_unique<DispatchTable>();
  next->entries = base->entries;
  next->index = base->index;
  std::size_t shadowed_pos = next->entries.size();
  for (std::size_t pos = 0; pos < next->entries.size(); ++pos) {
    if (next->entries[pos]->name == raw->name) {
      shadowed_pos = pos;
      break;
    }
  }
  if (shadowed_pos < next->entries.size()) {
    next->entries[shadowed_pos] = raw;
    for (auto& [index_name, index_id] : next->index) {
      if (index_name == raw->name) {
        index_name = std::string_view(raw->name);
        index_id = raw->id;
        break;
      }
    }
  } else {
    next->entries.push_back(raw);
    const std::pair<std::string_view, DiplomatId> element{
        std::string_view(raw->name), raw->id};
    next->index.insert(
        std::upper_bound(next->index.begin(), next->index.end(), element,
                         [](const auto& a, const auto& b) {
                           return a.first < b.first;
                         }),
        element);
  }
  build_buckets(*next);
  fork.table.store(next.release(), std::memory_order_release);
  // Retire only superseded forks; the first fork's base is the live shared
  // table, which other sessions are still dispatching through.
  if (forked) util::EpochReclaimer::instance().retire(base);
  // Invalidate this thread's one-entry cache: it may hold the shared entry
  // this registration just shadowed.
  t_lookup_cache = {};
  return *raw;
}

void DiplomatRegistry::clear_stats() {
  std::lock_guard lock(writer_mutex_);
  for (const auto& entry : owned_) {
    entry->calls.store(0);
    entry->latency.reset();
    entry->contract.reset();
  }
}

std::vector<DiplomatSnapshot> DiplomatRegistry::snapshot() const {
  // Reads the immutable published table the calling thread's session
  // dispatches through (its fork when it has one, the shared table
  // otherwise): safe against concurrent registration without the writer
  // mutex, pinned against concurrent retirement. Iterates the name index so
  // the output stays name-sorted like the std::map-based design.
  util::EpochReclaimer::Guard guard;
  const DispatchTable* table = nullptr;
  if (Session* session = dispatch_session()) {
    table = fork_of(*session).table.load(std::memory_order_acquire);
  }
  if (table == nullptr) table = table_.load(std::memory_order_acquire);
  std::vector<DiplomatSnapshot> out;
  out.reserve(table->entries.size());
  for (const auto& [name, id] : table->index) {
    const DiplomatEntry* entry = &entry_by_id(id);
    const DiplomatContract& contract = entry->contract;
    out.push_back({entry->name, entry->pattern, entry->calls.load(),
                   entry->latency.sum(), entry->latency.percentile(50),
                   entry->latency.percentile(95), entry->latency.percentile(99),
                   contract.preludes.load(), contract.postludes.load(),
                   contract.domestic_calls.load(),
                   contract.skipped_calls.load(),
                   contract.unbalanced_persona.load(),
                   contract.pattern_conflicts.load()});
  }
  return out;
}

namespace detail {
long errno_linux_to_darwin(long linux_errno) {
  switch (linux_errno) {
    case 11: return 35;   // EAGAIN
    case 38: return 78;   // ENOSYS
    case 35: return 11;   // EDEADLK
    default: return linux_errno;
  }
}
}  // namespace detail

}  // namespace cycada::core
