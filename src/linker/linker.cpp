#include "linker/linker.h"

#include <deque>

#include "core/session.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/log.h"

namespace cycada::linker {

LibraryInstance* LoadContext::dep(std::string_view name) {
  for (const auto& dep : self_->deps_) {
    if (dep->name() == name) return dep->instance();
  }
  return nullptr;
}

Linker& Linker::instance() {
  // Per-session linker facet: each session owns its images, loaded copies,
  // replica namespaces and warm pools. Default-session facets are immortal.
  // Teardown tier 1: destroying the linker unloads every library copy, and
  // library-instance destructors reach into the session's kernel (TLS key
  // deletes), GPU device (context/texture teardown) and EGL pins — all tier
  // 0 facets that must still be alive, regardless of which facet happened
  // to be created first.
  return core::Session::current().facet<Linker>(
      +[] {
        Linker* linker = new Linker();
        linker->owner_ = core::Session::constructing_owner();
        return linker;
      },
      /*teardown_order=*/1);
}

void Linker::reset() {
  std::lock_guard lock(mutex_);
  loaded_.clear();
  images_.clear();
  load_counts_.clear();
  replica_bypasses_.clear();
  next_namespace_ = 1;
}

Status Linker::register_image(LibraryImage image) {
  std::lock_guard lock(mutex_);
  if (image.name.empty() || !image.factory) {
    return Status::invalid_argument("library image needs a name and factory");
  }
  auto [it, inserted] = images_.emplace(image.name, std::move(image));
  (void)it;
  if (!inserted) return Status::already_exists("library already registered");
  return Status::ok();
}

bool Linker::has_image(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return images_.find(name) != images_.end();
}

StatusOr<Handle> Linker::dlopen(std::string_view name, NamespaceId ns) {
  TRACE_SCOPE("linker", "dlopen");
  core::Session::check_access(owner_, core::SessionLayer::kLinker);
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("linker.dlopen");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected fault: linker.dlopen");
  }
  std::lock_guard lock(mutex_);
  if (ns == kGlobalNamespace) {
    // Replica-path bypass audit: a global-namespace open of a replicated
    // vendor-stack library, while replicas exist, aliases replica state.
    auto image_it = images_.find(name);
    if (image_it != images_.end() && image_it->second.replica_aware) {
      for (const auto& [key, copy] : loaded_) {
        if (key.first != kGlobalNamespace && key.second == name &&
            copy != nullptr) {
          replica_bypasses_.push_back(std::string(name));
          break;
        }
      }
    }
  }
  return load_locked(name, ns);
}

StatusOr<Handle> Linker::dlopen_shared_fallback(std::string_view name) {
  TRACE_SCOPE("linker", "dlopen_shared_fallback");
  static trace::Counter& shared_opens =
      trace::MetricsRegistry::instance().counter("degrade.linker_shared_open");
  std::lock_guard lock(mutex_);
  auto result = load_locked(name, kGlobalNamespace);
  if (result.is_ok()) shared_opens.add();
  return result;
}

StatusOr<Handle> Linker::dlforce(std::string_view name) {
  TRACE_SCOPE("linker", "dlforce");
  core::Session::check_access(owner_, core::SessionLayer::kLinker);
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("linker.dlforce");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected fault: linker.dlforce");
  }
  static trace::Counter& replicas =
      trace::MetricsRegistry::instance().counter("linker.replica_loads");
  static trace::Histogram& load_ns =
      trace::MetricsRegistry::instance().histogram("linker.dlforce_ns");
  const std::int64_t start_ns = now_ns();
  std::lock_guard lock(mutex_);
  // A fresh namespace: nothing is "already loaded" in it, so the whole
  // dependency closure is re-instanced and every constructor runs again.
  const NamespaceId ns = next_namespace_++;
  auto result = load_locked(name, ns);
  if (result.is_ok()) {
    replicas.add();
    load_ns.record(now_ns() - start_ns);
  }
  return result;
}

StatusOr<std::shared_ptr<LoadedLibrary>> Linker::load_locked(
    std::string_view name, NamespaceId ns) {
  auto it = loaded_.find(std::pair<NamespaceId, std::string_view>(ns, name));
  if (it != loaded_.end()) {
    // Normal dlopen semantics: hand back the copy already present in this
    // namespace.
    return it->second;
  }

  auto image_it = images_.find(name);
  if (image_it == images_.end()) {
    return Status::not_found("no such library: " + std::string(name));
  }
  const LibraryImage& image = image_it->second;

  // Only actual instancing (cache misses) is worth a span; the name string
  // must outlive the span, hence the local.
  const std::string span_name = "load:" + std::string(name);
  TRACE_SCOPE("linker", span_name.c_str());
  static trace::Counter& loads =
      trace::MetricsRegistry::instance().counter("linker.libraries_loaded");
  loads.add();

  auto copy = std::make_shared<LoadedLibrary>(&image, ns);
  // Publish before loading deps so dependency cycles terminate (the second
  // visit resolves to this entry instead of recursing).
  const auto key = std::make_pair(ns, std::string(name));
  loaded_.emplace(key, copy);

  for (const std::string& dep_name : image.deps) {
    auto dep = load_locked(dep_name, ns);
    if (!dep.is_ok()) {
      loaded_.erase(key);
      return Status::not_found("while loading " + std::string(name) + ": " +
                               dep.status().message());
    }
    copy->deps_.push_back(std::move(dep.value()));
  }

  // Run the library's constructors / init data setup.
  LoadContext context(*this, ns, copy.get());
  copy->instance_ = image.factory(context);
  if (copy->instance_ == nullptr) {
    loaded_.erase(key);
    return Status::internal("constructor failed for " + std::string(name));
  }
  ++load_counts_[std::string(name)];
  CYCADA_LOG(kDebug) << "linker: loaded " << name << " into ns " << ns;
  return copy;
}

void* Linker::dlsym(const Handle& handle, std::string_view symbol) {
  if (handle == nullptr) return nullptr;
  TRACE_SCOPE("linker", "dlsym");
  static trace::Counter& lookups =
      trace::MetricsRegistry::instance().counter("linker.dlsym_lookups");
  lookups.add();
  // Breadth-first over the handle's tree, never leaving its namespace —
  // the dlforce-scoped search behavior of paper §8.1.
  std::deque<const LoadedLibrary*> queue{handle.get()};
  while (!queue.empty()) {
    const LoadedLibrary* lib = queue.front();
    queue.pop_front();
    if (LibraryInstance* inst = const_cast<LoadedLibrary*>(lib)->instance()) {
      if (void* address = inst->symbol(symbol)) return address;
    }
    for (const auto& dep : lib->deps()) queue.push_back(dep.get());
  }
  return nullptr;
}

Status Linker::dlclose(Handle handle) {
  if (handle == nullptr) return Status::invalid_argument("null handle");
  std::lock_guard lock(mutex_);
  const auto key = std::make_pair(handle->namespace_id(), handle->name());
  auto it = loaded_.find(key);
  if (it == loaded_.end() || it->second.get() != handle.get()) {
    // Unknown or stale handle: its (namespace, name) slot is gone or has
    // been reloaded with a different copy. Silently accepting it would
    // let a double dlclose unload the new copy out from under its users.
    return Status::not_found("dlclose: stale handle for " + handle->name());
  }
  // Drop the caller's reference; if only the registry still holds the copy,
  // unload it (and transitively, any dependencies nothing else references).
  handle.reset();
  if (it->second.use_count() == 1) {
    // Collect the tree before erasing the root so dependency registry
    // entries can be dropped too once orphaned.
    std::vector<std::pair<NamespaceId, std::string>> candidates;
    std::deque<const LoadedLibrary*> queue{it->second.get()};
    while (!queue.empty()) {
      const LoadedLibrary* lib = queue.front();
      queue.pop_front();
      candidates.emplace_back(lib->namespace_id(), lib->name());
      for (const auto& dep : lib->deps()) queue.push_back(dep.get());
    }
    loaded_.erase(it);
    for (const auto& candidate : candidates) {
      auto cit = loaded_.find(candidate);
      if (cit != loaded_.end() && cit->second.use_count() == 1) {
        loaded_.erase(cit);
      }
    }
  }
  return Status::ok();
}

int Linker::load_count(std::string_view name) const {
  std::lock_guard lock(mutex_);
  auto it = load_counts_.find(name);
  return it == load_counts_.end() ? 0 : it->second;
}

std::vector<Linker::LoadedCopy> Linker::loaded_copies() const {
  std::lock_guard lock(mutex_);
  std::vector<LoadedCopy> out;
  out.reserve(loaded_.size());
  for (const auto& [key, copy] : loaded_) {
    out.push_back({key.second, key.first, copy});
  }
  return out;
}

std::vector<std::string> Linker::replica_bypass_events() const {
  std::lock_guard lock(mutex_);
  return replica_bypasses_;
}

int Linker::live_copy_count(std::string_view name) const {
  std::lock_guard lock(mutex_);
  int count = 0;
  for (const auto& [key, copy] : loaded_) {
    if (key.second == name) ++count;
  }
  return count;
}

}  // namespace cycada::linker
