#include "android_gl/vendor.h"

#include "android_gl/egl.h"
#include "android_gl/ui_wrapper.h"
#include "glcore/api_registry.h"

namespace cycada::android_gl {

namespace {

// Trivial vendor support library: per-copy global state only.
class NvSupportLib : public linker::LibraryInstance {
 public:
  void* symbol(std::string_view name) override {
    if (name == "nv_global") return &global_;
    return nullptr;
  }
  std::vector<std::string> exported_symbols() const override {
    return {"nv_global"};
  }

 private:
  int global_ = 0;
};

}  // namespace

VendorGles::VendorGles()
    : engine_(glcore::GlesEngineConfig{
          .vendor = "NVIDIA Corporation",
          .renderer = "NVIDIA Tegra 3 (SoftGPU)",
          .gles1_version = "OpenGL ES-CM 1.1",
          .gles2_version = "OpenGL ES 2.0 14.01003",
          .extensions = glcore::extension_string(glcore::android_registry()),
          .supports_nv_fence = true,
          .supports_apple_row_bytes = false,
      }) {}

void* VendorGles::symbol(std::string_view name) {
  if (name == "gles_engine") return &engine_;
  if (name == "vendor_global") return &vendor_global_;
  return nullptr;
}

std::vector<std::string> VendorGles::exported_symbols() const {
  return {"gles_engine", "vendor_global"};
}

glcore::GlesEngine* engine_from_handle(const linker::Handle& handle) {
  void* symbol = linker::Linker::instance().dlsym(handle, "gles_engine");
  return static_cast<glcore::GlesEngine*>(symbol);
}

void register_android_graphics_libraries() {
  linker::Linker& linker = linker::Linker::instance();
  if (linker.has_image(kVendorGlesLib)) return;

  // The vendor stack below libEGL is replica_aware: once eglReInitializeMC
  // has minted replicas, any further global-namespace dlopen of these
  // libraries is a bypass of the replica-aware path (audited by the linker,
  // reported by analyze::check_replica_isolation).
  (void)linker.register_image(
      {kNvOsLib, {}, [](linker::LoadContext&) {
         return std::make_unique<NvSupportLib>();
       }, /*replica_aware=*/true});
  (void)linker.register_image(
      {kNvRmLib, {kNvOsLib}, [](linker::LoadContext&) {
         return std::make_unique<NvSupportLib>();
       }, /*replica_aware=*/true});
  (void)linker.register_image(
      {kVendorGlesLib, {kNvRmLib}, [](linker::LoadContext&) {
         return std::make_unique<VendorGles>();
       }, /*replica_aware=*/true});
  (void)linker.register_image(
      {kEglLib, {kVendorGlesLib}, [](linker::LoadContext&) {
         return std::make_unique<AndroidEgl>();
       }});
  (void)linker.register_image(
      {kUiWrapperLib, {kVendorGlesLib}, [](linker::LoadContext& context) {
         return std::make_unique<UiWrapper>(context);
       }, /*replica_aware=*/true});
}

}  // namespace cycada::android_gl
