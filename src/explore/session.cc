#include "explore/session.h"

#include <cmath>

#include "kdv/bandwidth.h"

namespace slam {

Result<ExplorerSession> ExplorerSession::Create(PointDataset dataset,
                                                const SessionConfig& config) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot explore an empty dataset");
  }
  if (config.width_px <= 0 || config.height_px <= 0) {
    return Status::InvalidArgument("session resolution must be positive");
  }
  double bandwidth;
  if (config.bandwidth) {
    if (!(*config.bandwidth > 0.0)) {
      return Status::InvalidArgument("session bandwidth must be positive");
    }
    bandwidth = *config.bandwidth;
  } else {
    SLAM_ASSIGN_OR_RETURN(bandwidth, ScottBandwidth(dataset.coords()));
  }
  SLAM_ASSIGN_OR_RETURN(
      Viewport viewport,
      Viewport::Create(dataset.Extent(), config.width_px, config.height_px));
  PointDataset filtered = dataset;  // starts unfiltered
  return ExplorerSession(std::move(dataset), std::move(filtered), config,
                         bandwidth, viewport);
}

Status ExplorerSession::Zoom(double ratio) {
  SLAM_ASSIGN_OR_RETURN(viewport_, viewport_.Zoomed(ratio));
  return Status::OK();
}

Status ExplorerSession::Pan(double fraction_x, double fraction_y) {
  SLAM_ASSIGN_OR_RETURN(
      viewport_, viewport_.Panned(fraction_x * viewport_.region().width(),
                                  fraction_y * viewport_.region().height()));
  return Status::OK();
}

Status ExplorerSession::ResetView() {
  if (filtered_.empty()) {
    return Status::InvalidArgument(
        "active filter matches no points; no view to reset to");
  }
  SLAM_ASSIGN_OR_RETURN(viewport_,
                        Viewport::Create(filtered_.Extent(),
                                         config_.width_px, config_.height_px));
  return Status::OK();
}

Status ExplorerSession::SetFilter(const EventFilter& filter) {
  SLAM_ASSIGN_OR_RETURN(filtered_, ApplyFilter(full_, filter));
  return Status::OK();
}

Status ExplorerSession::ScaleBandwidth(double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    return Status::InvalidArgument(
        "bandwidth scale factor must be positive and finite");
  }
  bandwidth_ *= factor;
  return Status::OK();
}

Status ExplorerSession::SetBandwidth(double bandwidth) {
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  bandwidth_ = bandwidth;
  return Status::OK();
}

Status ExplorerSession::SetKernel(KernelType kernel) {
  if (MethodIsSlam(config_.method) && !KernelSupportedBySlam(kernel)) {
    return Status::InvalidArgument(
        "current method is a SLAM variant, which cannot support the " +
        std::string(KernelTypeName(kernel)) + " kernel");
  }
  config_.kernel = kernel;
  return Status::OK();
}

Status ExplorerSession::SetMethod(Method method) {
  if (MethodIsSlam(method) && !KernelSupportedBySlam(config_.kernel)) {
    return Status::InvalidArgument(
        "current kernel is " + std::string(KernelTypeName(config_.kernel)) +
        ", which SLAM cannot support");
  }
  config_.method = method;
  return Status::OK();
}

Result<DensityMap> ExplorerSession::Render() const {
  const KdvTask task =
      MakeTask(filtered_, viewport_, config_.kernel, bandwidth_);
  return ComputeKdv(task, config_.method, config_.engine);
}

Result<RenderOutcome> ExplorerSession::RenderAdaptive() const {
  return RenderOnLadder(filtered_, viewport_, config_.kernel, bandwidth_,
                        config_.method, config_.engine, config_.degrade_mode,
                        config_.max_degrade_retries,
                        config_.render_budget_seconds);
}

}  // namespace slam
