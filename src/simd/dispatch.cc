#include "simd/dispatch.h"

#include <string>

#include "simd/sweep_ops.h"
#include "util/string_util.h"

namespace slam {

namespace {

/// CPU feature check only; whether the backend is compiled in is the ops
/// getters' concern.
bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel DetectOnce() {
  if (SimdLevelAvailable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

Result<SimdLevel> SimdLevelFromName(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "auto") return SimdLevel::kAuto;
  if (lower == "scalar" || lower == "none") return SimdLevel::kScalar;
  if (lower == "avx2") return SimdLevel::kAvx2;
  return Status::InvalidArgument("unknown SIMD level '" + std::string(name) +
                                 "' (want auto|scalar|avx2)");
}

bool SimdLevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return GetAvx2Ops() != nullptr && CpuSupports(level);
  }
  return false;
}

SimdLevel DetectSimdLevel() {
  static const SimdLevel cached = DetectOnce();
  return cached;
}

Result<SimdLevel> ResolveSimdLevel(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) return DetectSimdLevel();
  if (!SimdLevelAvailable(requested)) {
    return Status::InvalidArgument(
        "SIMD level '" + std::string(SimdLevelName(requested)) +
        "' is not available on this build/CPU (detected best: " +
        std::string(SimdLevelName(DetectSimdLevel())) + ")");
  }
  return requested;
}

}  // namespace slam
