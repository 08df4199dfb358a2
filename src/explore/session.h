// ExplorerSession: the stateful interactive-KDV object behind a tool like
// KDV-Explorer [19]. Holds a dataset, the active filter, the current
// viewport, kernel, bandwidth and method; zoom/pan/filter operations mutate
// the state and Render() produces the raster for the current view. This is
// the integration surface the paper's Figure 2 workflow exercises.
#pragma once

#include <memory>
#include <optional>

#include "data/dataset.h"
#include "explore/degrade.h"
#include "explore/filter.h"
#include "geom/viewport.h"
#include "kdv/engine.h"
#include "util/result.h"

namespace slam {

struct SessionConfig {
  int width_px = 1280;
  int height_px = 960;
  KernelType kernel = KernelType::kEpanechnikov;
  /// Unset = choose by Scott's rule on the (filtered) data at creation.
  std::optional<double> bandwidth;
  Method method = Method::kSlamBucketRao;
  EngineOptions engine;
  /// Per-attempt wall-clock budget for RenderAdaptive; <= 0 keeps whatever
  /// deadline engine.compute.exec already carries (possibly none).
  double render_budget_seconds = 0.0;
  /// How many times RenderAdaptive may halve the resolution after a
  /// DeadlineExceeded / ResourceExhausted attempt before giving up.
  int max_degrade_retries = 2;
  /// How far RenderAdaptive's ladder descends (explore/degrade.h).
  /// kHalfRes preserves the historical behaviour; kSample adds a final
  /// Z-order-sampled rung after the halvings are exhausted.
  DegradeMode degrade_mode = DegradeMode::kHalfRes;
};

class ExplorerSession {
 public:
  /// Takes a copy of the dataset. Initial viewport = dataset MBR.
  static Result<ExplorerSession> Create(PointDataset dataset,
                                        const SessionConfig& config);

  // -- Exploratory operations (paper Figure 2) -------------------------

  /// Scales the viewport about its center; ratio < 1 zooms in.
  Status Zoom(double ratio);
  /// Moves the viewport by the given fraction of its own width/height
  /// (e.g. Pan(0.5, 0) pans half a screen east).
  Status Pan(double fraction_x, double fraction_y);
  /// Resets the viewport to the MBR of the active (filtered) data.
  Status ResetView();
  /// Re-filters from the full dataset; pass a default EventFilter to clear.
  Status SetFilter(const EventFilter& filter);
  /// Scales the current bandwidth (bandwidth selection slider).
  Status ScaleBandwidth(double factor);
  Status SetBandwidth(double bandwidth);
  Status SetKernel(KernelType kernel);
  Status SetMethod(Method method);

  // -- Rendering --------------------------------------------------------

  /// Computes the density raster for the current state.
  Result<DensityMap> Render() const;

  /// Render with graceful degradation: RenderOnLadder (explore/degrade.h)
  /// over the current state, with config.degrade_mode,
  /// config.max_degrade_retries halvings and config.render_budget_seconds
  /// per rung. DeadlineExceeded / ResourceExhausted step down the ladder;
  /// Cancelled and every other error return unchanged.
  Result<RenderOutcome> RenderAdaptive() const;

  // -- Introspection ----------------------------------------------------

  const Viewport& viewport() const { return viewport_; }
  const PointDataset& active_data() const { return filtered_; }
  size_t total_points() const { return full_.size(); }
  double bandwidth() const { return bandwidth_; }
  KernelType kernel() const { return config_.kernel; }
  Method method() const { return config_.method; }

 private:
  ExplorerSession(PointDataset full, PointDataset filtered,
                  const SessionConfig& config, double bandwidth,
                  Viewport viewport)
      : full_(std::move(full)),
        filtered_(std::move(filtered)),
        config_(config),
        bandwidth_(bandwidth),
        viewport_(viewport) {}

  PointDataset full_;
  PointDataset filtered_;
  SessionConfig config_;
  double bandwidth_;
  Viewport viewport_;
};

}  // namespace slam
