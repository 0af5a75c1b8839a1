#include "numeric/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace oxmlc::num::simd {
namespace {

std::atomic<Backend> g_override{Backend::kAuto};

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// OXMLC_SIMD environment override, parsed once: "auto" (default), "avx2" or
// "scalar" (portable pack). Any other value throws rather than silently
// running a backend the user did not ask for.
Backend env_backend() {
  static const Backend parsed = [] {
    const char* env = std::getenv("OXMLC_SIMD");
    if (env == nullptr) return Backend::kAuto;
    const std::string value(env);
    if (value == "auto") return Backend::kAuto;
    if (value == "avx2") return Backend::kAvx2;
    if (value == "scalar") return Backend::kScalar;
    throw InvalidArgumentError(
        "OXMLC_SIMD=" + value +
        " is not a SIMD backend; accepted values: auto, avx2, scalar");
  }();
  return parsed;
}

}  // namespace

bool avx2_available() {
  static const bool available = OXMLC_SIMD_HAS_AVX2 != 0 && cpu_has_avx2_fma();
  return available;
}

Backend active_backend() {
  Backend backend = g_override.load(std::memory_order_relaxed);
  if (backend == Backend::kAuto) backend = env_backend();
  if (backend == Backend::kAvx2 && !avx2_available()) backend = Backend::kScalar;
  if (backend == Backend::kAuto) {
    backend = avx2_available() ? Backend::kAvx2 : Backend::kScalar;
  }
  return backend;
}

Backend set_backend_override(Backend backend) {
  return g_override.exchange(backend, std::memory_order_relaxed);
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

}  // namespace oxmlc::num::simd
