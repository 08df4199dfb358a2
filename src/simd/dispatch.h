// Runtime SIMD dispatch for the sweep hot paths (ROADMAP item 2).
//
// The per-row sweep work — envelope filtering, bound-interval computation,
// endpoint bucketing, the pixel-binned counting sort, and the closed-form
// per-pixel polynomial over the (count, A, S, C, Q, M) aggregates — is
// data-parallel across points and pixels. Each instruction-set backend implements the same row primitives
// (simd/sweep_ops.h); the level is chosen once per engine call and carried
// in ComputeOptions::simd, so a binary built on any machine picks the best
// available backend at runtime and can be pinned to a specific one
// (`slam_kdv --simd=scalar`) for debugging and differential testing.
//
// The scalar backend is the semantic reference: it reproduces the original
// per-pixel sweep arithmetic operation for operation, and every vector
// backend is held to it (and to the long-double oracle) at 1e-9 by
// tests/simd/simd_equivalence_test.cc and the differential fuzz target.
#pragma once

#include <string_view>

#include "util/result.h"

namespace slam {

enum class SimdLevel : int {
  kAuto = 0,    // resolve to the best available backend at runtime
  kScalar = 1,  // portable reference path, always available
  kAvx2 = 2,    // x86-64 AVX2 (256-bit, 4 doubles per op)
};

std::string_view SimdLevelName(SimdLevel level);
Result<SimdLevel> SimdLevelFromName(std::string_view name);

/// True when `level` can actually run here: the backend was compiled in
/// (the AVX2 translation unit is arch-gated) and the CPU reports
/// the feature at runtime. kScalar is always available; kAuto is always
/// "available" (it resolves to something that is).
bool SimdLevelAvailable(SimdLevel level);

/// The best available concrete level on this machine (never kAuto).
/// Detection runs once and is cached.
SimdLevel DetectSimdLevel();

/// Resolves kAuto to DetectSimdLevel() and validates explicit requests:
/// asking for a backend this build/CPU cannot run is InvalidArgument, not
/// a silent fallback — a pinned `--simd=avx2` must mean AVX2 ran.
Result<SimdLevel> ResolveSimdLevel(SimdLevel requested);

}  // namespace slam
