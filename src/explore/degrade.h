// The graceful-degradation ladder: the one shared contract for trading
// answer fidelity for latency under deadline or memory pressure.
//
// Zheng et al. ("Visualization of Big Spatial Data using Coresets for
// KDE") establishes that bounded-error reduced-fidelity densities are an
// acceptable answer under pressure; this header turns that into a
// mechanical ladder and the one loop that descends it, RenderOnLadder.
// Both degrading callers (ExplorerSession::RenderAdaptive and
// `slam_kdv --degrade`) call that loop:
//
//   level 0             full resolution, requested method   (kFull)
//   level 1..H          resolution halved per level         (kHalfRes)
//   level H+1 (kSample) Z-order sampled subset, coarsest    (kSampled)
//
// where H = max_halvings. Every response is tagged with the Fidelity that
// was actually served, so a degraded answer can never masquerade as a
// full-fidelity one.
#pragma once

#include <optional>
#include <string_view>

#include "data/dataset.h"
#include "geom/viewport.h"
#include "kdv/engine.h"
#include "util/result.h"

namespace slam {

/// What a caller actually received, attached to every degradable answer.
enum class Fidelity : int {
  kFull = 0,     // requested resolution, exact requested method
  kHalfRes = 1,  // exact method at a halved (>= once) resolution
  kSampled = 2,  // Z-order sampled subset: approximate, bounded error
};

std::string_view FidelityName(Fidelity fidelity);

/// How far a caller permits the ladder to descend.
enum class DegradeMode : int {
  kOff = 0,      // full fidelity or failure
  kHalfRes = 1,  // allow half-resolution rungs
  kSample = 2,   // allow half-res rungs, then the sampled rung
};

std::string_view DegradeModeName(DegradeMode mode);
/// Accepts "off", "halfres" (also "half-res"/"half"), "sample" (also
/// "sampled") — the CLI --degrade vocabulary.
Result<DegradeMode> DegradeModeFromName(std::string_view name);

/// One rung of the ladder: what to compute at `level`.
struct DegradeStep {
  int width = 0;
  int height = 0;
  Method method = Method::kSlamBucketRao;
  Fidelity fidelity = Fidelity::kFull;
};

/// The plan for ladder rung `level` (0 = full fidelity), or nullopt once
/// the mode's ladder is exhausted. `max_halvings` bounds the half-res
/// rungs; the sampled rung (mode kSample only) reuses the coarsest
/// half-res resolution. Resolutions never drop below 1x1.
std::optional<DegradeStep> DegradeLadderStep(DegradeMode mode, int level,
                                             int max_halvings, int full_width,
                                             int full_height, Method method);

/// Result of a render on the ladder: the raster actually produced, the
/// rung that produced it, and (when degraded) why full resolution failed.
struct RenderOutcome {
  DensityMap map;
  /// 0 = full resolution; k = rendered at width/2^k x height/2^k (the
  /// sampled rung reuses the coarsest halving's resolution).
  int degrade_level = 0;
  /// What was actually served; never kFull when degrade_level > 0.
  Fidelity fidelity = Fidelity::kFull;
  /// The method that produced `map`: the requested one, or kZorder on the
  /// sampled rung.
  Method method = Method::kSlamBucketRao;
  /// OK at degrade_level 0, else the full-resolution attempt's error.
  Status full_res_status;
};

/// Renders `data` over `viewport` (its region at its full resolution),
/// stepping down the ladder while a rung fails with DeadlineExceeded or
/// ResourceExhausted. Cancelled is final (the user asked to stop), and any
/// other error would fail identically at every rung, so both return
/// unchanged. `engine.compute.exec` passes through to every rung, so a
/// request deadline it carries is shared: once it expires, each later rung
/// fails before doing work. A `rung_budget_seconds` > 0 instead arms a
/// fresh deadline per rung. When every rung fails, the full-resolution
/// error is returned.
Result<RenderOutcome> RenderOnLadder(const PointDataset& data,
                                     const Viewport& viewport,
                                     KernelType kernel, double bandwidth,
                                     Method method,
                                     const EngineOptions& engine,
                                     DegradeMode mode, int max_halvings,
                                     double rung_budget_seconds);

}  // namespace slam
