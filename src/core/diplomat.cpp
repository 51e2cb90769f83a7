#include "core/diplomat.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cycada::core {

namespace {

// Per-thread one-entry lookup cache for name-based callers (call sites that
// pass the same name every time). A hit is validated against the cached
// entry's own immortal name — never against a caller pointer remembered
// from a previous call, which could be a freed buffer reallocated for a
// different, same-length name. Keyed on the requested pattern too, so a
// call site that disagrees with the registered classification keeps going
// through the index path where the conflict is counted.
struct LookupCache {
  DiplomatPattern pattern = DiplomatPattern::kDirect;
  DiplomatEntry* entry = nullptr;
};
thread_local LookupCache t_lookup_cache;

// Word-at-a-time multiplicative hash: two multiplies for a typical GL name
// instead of one per byte, and good enough for a half-full index (probes
// verify with a full compare anyway).
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

}  // namespace

DiplomatRegistry& DiplomatRegistry::instance() {
  static DiplomatRegistry* registry = new DiplomatRegistry();
  return *registry;
}

void DiplomatRegistry::reset() {
  // Entries are process-lifetime: call sites cache DiplomatEntry references
  // and DiplomatIds (the paper's step-1 symbol cache), so entries must
  // never be destroyed. Reset only clears statistics.
  clear_stats();
  profiling_.store(false);
}

DiplomatEntry* DiplomatRegistry::find(std::string_view name) const {
  // A null slot ends the probe. A reader can see a slot still null that a
  // concurrent registration is about to fill; that only sends it to the
  // slow path, which re-probes under the writer mutex.
  for (std::size_t slot = hash_name(name) & (kIndexSize - 1);;
       slot = (slot + 1) & (kIndexSize - 1)) {
    DiplomatEntry* entry = index_[slot].load(std::memory_order_acquire);
    if (entry == nullptr || entry->name == name) return entry;
  }
}

DiplomatEntry& DiplomatRegistry::entry(std::string_view name,
                                       DiplomatPattern pattern) {
  LookupCache& cache = t_lookup_cache;
  if (cache.entry != nullptr && cache.pattern == pattern &&
      cache.entry->name == name) {
    return *cache.entry;
  }
  DiplomatEntry* found = find(name);
  if (found == nullptr) found = &register_slow(name, pattern);
  if (found->pattern != pattern) {
    // Two call sites disagree on this function's classification; the first
    // registration wins, the checker reports the conflict. Deliberately not
    // cached so every mismatched lookup is counted, like the locked design.
    found->contract.pattern_conflicts.fetch_add(1, std::memory_order_relaxed);
    return *found;
  }
  cache = {pattern, found};
  return *found;
}

DiplomatId DiplomatRegistry::resolve(std::string_view name,
                                     DiplomatPattern pattern) {
  return entry(name, pattern).id;
}

DiplomatEntry& DiplomatRegistry::register_slow(std::string_view name,
                                               DiplomatPattern pattern) {
  std::lock_guard lock(writer_mutex_);
  // Re-probe under the writer mutex: another thread may have registered
  // `name` between our lock-free miss and acquiring the lock. Slots only
  // fill under this mutex, so the probe's null slot is where `name` goes.
  std::size_t slot = hash_name(name) & (kIndexSize - 1);
  for (DiplomatEntry* existing;
       (existing = index_[slot].load(std::memory_order_relaxed)) != nullptr;
       slot = (slot + 1) & (kIndexSize - 1)) {
    if (existing->name == name) return *existing;
  }
  if (owned_.size() >= kCapacity) {
    // Ids index a fixed segment array; running past it must never be
    // silent, whatever the build type.
    std::fprintf(stderr,
                 "cycada: diplomat registry full (%zu entries), cannot "
                 "register %.*s\n",
                 owned_.size(), static_cast<int>(name.size()), name.data());
    std::abort();
  }

  auto entry = std::make_unique<DiplomatEntry>();
  entry->name = std::string(name);
  entry->id = static_cast<DiplomatId>(owned_.size());
  entry->pattern = pattern;
  DiplomatEntry* raw = entry.get();
  owned_.push_back(std::move(entry));

  // Publish the id-segment slot first and the index slot second, so a
  // reader that finds the entry by name can resolve its id through
  // entry_by_id() at once. Segments are never replaced or freed.
  std::atomic<IdSegment*>& segment_slot = segments_[raw->id >> kSegmentShift];
  IdSegment* segment = segment_slot.load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new IdSegment();
    segment_slot.store(segment, std::memory_order_release);
  }
  segment->slots[raw->id & (kSegmentSize - 1)].store(
      raw, std::memory_order_release);
  index_[slot].store(raw, std::memory_order_release);
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

std::size_t DiplomatRegistry::size() const {
  std::lock_guard lock(writer_mutex_);
  return owned_.size();
}

std::vector<DiplomatSnapshot> DiplomatRegistry::snapshot() const {
  std::vector<const DiplomatEntry*> entries;
  {
    std::lock_guard lock(writer_mutex_);
    entries.reserve(owned_.size());
    for (const auto& entry : owned_) entries.push_back(entry.get());
  }
  // Sorted by name so reports built from it are stable across runs, whatever
  // order the names registered in.
  std::sort(entries.begin(), entries.end(),
            [](const DiplomatEntry* a, const DiplomatEntry* b) {
              return a->name < b->name;
            });
  std::vector<DiplomatSnapshot> out;
  out.reserve(entries.size());
  for (const DiplomatEntry* entry : entries) {
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
