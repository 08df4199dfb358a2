#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <thread>

#include "data/csv_io.h"
#include "data/generators.h"
#include "data/sampling.h"
#include "explore/session.h"
#include "explore/viewport_ops.h"
#include "kdv/bandwidth.h"
#include "kdv/parallel.h"
#include "testing/oracle.h"
#include "util/string_util.h"

namespace perfbench {

using slam::DensityMap;
using slam::KdvTask;
using slam::Result;
using slam::Status;

Result<WorkloadKind> WorkloadFromName(std::string_view name) {
  if (name == "export") return WorkloadKind::kExport;
  if (name == "pan_zoom") return WorkloadKind::kPanZoom;
  if (name == "time_slider") return WorkloadKind::kTimeSlider;
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "' (export, pan_zoom, time_slider)");
}

std::string_view WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kExport:
      return "export";
    case WorkloadKind::kPanZoom:
      return "pan_zoom";
    case WorkloadKind::kTimeSlider:
      return "time_slider";
  }
  return "?";
}

int ExportThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

Status WriteInputCsv(uint64_t seed, const std::string& path) {
  SLAM_ASSIGN_OR_RETURN(
      slam::PointDataset city,
      slam::GenerateCityDataset(slam::City::kSeattle, 2.0 * kCityScale));
  const size_t n =
      slam::CityPresetConfig(slam::City::kSeattle, kCityScale).n;
  SLAM_ASSIGN_OR_RETURN(slam::PointDataset dataset,
                        slam::SampleCount(city, n, seed));
  return slam::SaveDatasetCsv(dataset, path);
}

// -- Op scripts ---------------------------------------------------------

BandwidthCycle::BandwidthCycle(uint64_t seed) {
  for (int i = 0; i < kSteps; ++i) {
    factors_.push_back(0.5 * std::pow(4.0, static_cast<double>(i) /
                                               (kSteps - 1)));
  }
  slam::Rng rng(seed ^ 0xb1d7c5e1ULL);
  rng.Shuffle(&factors_);
}

double BandwidthCycle::Next() {
  const double factor = factors_[next_];
  next_ = (next_ + 1) % factors_.size();
  return factor;
}

PanZoomWalk::PanZoomWalk(uint64_t seed) {
  slam::Rng rng(seed ^ 0x9a2f00d5ULL);
  std::vector<int> quadrants = {0, 1, 2, 3};
  rng.Shuffle(&quadrants);
  for (int quadrant : quadrants) PlanExcursion(quadrant, &rng);
}

ViewOp PanZoomWalk::Next() {
  const ViewOp op = plan_[next_op_];
  next_op_ = (next_op_ + 1) % plan_.size();
  return op;
}

void PanZoomWalk::PlanExcursion(int quadrant, slam::Rng* rng) {
  const double sx = (quadrant & 1) ? 1.0 : -1.0;
  const double sy = (quadrant & 2) ? 1.0 : -1.0;
  // Per level: two pans toward the quadrant and one back along alternating
  // axes on the way in, the mirror image on the way out, so the excursion
  // drifts into the quadrant and returns. The seed orders each triple.
  const auto pans = [&](int level, double toward) {
    const bool odd = level % 2 == 1;
    std::vector<std::pair<double, double>> triple = {
        {toward * sx, 0.0},
        {0.0, toward * sy},
        {odd ? -toward * sx : 0.0, odd ? 0.0 : -toward * sy}};
    rng->Shuffle(&triple);
    for (const auto& [dx, dy] : triple) PlanPan(dx, dy);
  };
  for (int level = 1; level <= kMaxLevel; ++level) {
    PlanZoom(0.5);
    pans(level, kPanStep);
  }
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    PlanZoom(2.0);
    if (level > 0) pans(level, -kPanStep);
  }
}

void PanZoomWalk::PlanZoom(double ratio) {
  plan_at_ += ratio < 1.0 ? 1 : -1;
  ViewOp op;
  op.zoom = ratio;
  // Zooming out about a center near the edge would leave the MBR; pan the
  // new view back inside.
  const double width = std::ldexp(1.0, -plan_at_);
  const double half = 0.5 * width;
  const double nx = std::clamp(cx_, half, 1.0 - half);
  const double ny = std::clamp(cy_, half, 1.0 - half);
  op.pan_x = (nx - cx_) / width;
  op.pan_y = (ny - cy_) / width;
  cx_ = nx;
  cy_ = ny;
  plan_.push_back(op);
}

void PanZoomWalk::PlanPan(double dx, double dy) {
  const double width = std::ldexp(1.0, -plan_at_);
  const double half = 0.5 * width;
  const double nx = std::clamp(cx_ + dx * width, half, 1.0 - half);
  const double ny = std::clamp(cy_ + dy * width, half, 1.0 - half);
  ViewOp op;
  op.pan_x = (nx - cx_) / width;
  op.pan_y = (ny - cy_) / width;
  cx_ = nx;
  cy_ = ny;
  plan_.push_back(op);
}

TimeSlider::TimeSlider(uint64_t seed, int64_t data_begin, int64_t data_end)
    : begin_(data_begin),
      windows_(static_cast<int>(
          std::max<int64_t>(0, data_end - data_begin - kWindow) / kStep + 1)) {
  slam::Rng rng(seed ^ 0x7113e5c0ULL);
  next_ = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(windows_)));
}

slam::EventFilter TimeSlider::Next() {
  slam::EventFilter filter;
  filter.time_begin = begin_ + next_ * kStep;
  filter.time_end = *filter.time_begin + kWindow;
  next_ = (next_ + 1) % windows_;
  return filter;
}

// -- Sub-lattice oracle check ---------------------------------------------

SubLattice ChooseSubLattice(const slam::Grid& grid, int target_pixels,
                            slam::Rng* rng) {
  const double area = static_cast<double>(grid.pixel_count()) /
                      std::max(1, target_pixels);
  const int stride = std::max(1, static_cast<int>(std::ceil(std::sqrt(area))));
  SubLattice lattice;
  lattice.sx = lattice.sy = stride;
  lattice.x0 = static_cast<int>(
      rng->NextBelow(static_cast<uint64_t>(std::min(stride, grid.width()))));
  lattice.y0 = static_cast<int>(
      rng->NextBelow(static_cast<uint64_t>(std::min(stride, grid.height()))));
  lattice.nx = (grid.width() - 1 - lattice.x0) / stride + 1;
  lattice.ny = (grid.height() - 1 - lattice.y0) / stride + 1;
  return lattice;
}

namespace {

bool LatticeFits(const SubLattice& l, int width, int height) {
  return l.nx > 0 && l.ny > 0 && l.sx > 0 && l.sy > 0 && l.x0 >= 0 &&
         l.y0 >= 0 && l.x0 + (l.nx - 1) * l.sx < width &&
         l.y0 + (l.ny - 1) * l.sy < height;
}

}  // namespace

Result<KdvTask> SubLatticeTask(const KdvTask& task, const SubLattice& lattice) {
  if (!LatticeFits(lattice, task.grid.width(), task.grid.height())) {
    return Status::InvalidArgument("sub-lattice outside the task's grid");
  }
  const slam::GridAxis& xs = task.grid.x_axis();
  const slam::GridAxis& ys = task.grid.y_axis();
  SLAM_ASSIGN_OR_RETURN(
      slam::Grid grid,
      slam::Grid::Create({xs.Coord(lattice.x0), xs.gap * lattice.sx, lattice.nx},
                         {ys.Coord(lattice.y0), ys.gap * lattice.sy, lattice.ny}));
  KdvTask sub = task;
  sub.grid = grid;
  return sub;
}

Result<DensityMap> ExtractSubLattice(const DensityMap& map,
                                     const SubLattice& lattice) {
  if (!LatticeFits(lattice, map.width(), map.height())) {
    return Status::InvalidArgument("sub-lattice outside the raster");
  }
  SLAM_ASSIGN_OR_RETURN(DensityMap out,
                        DensityMap::Create(lattice.nx, lattice.ny));
  for (int j = 0; j < lattice.ny; ++j) {
    for (int i = 0; i < lattice.nx; ++i) {
      out.set(i, j, map.at(lattice.x0 + i * lattice.sx,
                           lattice.y0 + j * lattice.sy));
    }
  }
  return out;
}

Result<double> SubLatticeOracleError(const KdvTask& task, const DensityMap& map,
                                     const SubLattice& lattice) {
  SLAM_ASSIGN_OR_RETURN(KdvTask sub, SubLatticeTask(task, lattice));
  SLAM_ASSIGN_OR_RETURN(DensityMap reference, slam::testing::ReferenceScan(sub));
  SLAM_ASSIGN_OR_RETURN(DensityMap actual, ExtractSubLattice(map, lattice));
  SLAM_ASSIGN_OR_RETURN(slam::testing::OracleReport report,
                        slam::testing::CompareToReference(actual, reference));
  return report.max_rel_error;
}

Status CheckRender(const Workload& workload, const DensityMap& map,
                   slam::Rng* rng) {
  const KdvTask task = workload.CurrentTask();
  const SubLattice lattice = ChooseSubLattice(task.grid, kOraclePixels, rng);
  SLAM_ASSIGN_OR_RETURN(double oracle_error,
                        SubLatticeOracleError(task, map, lattice));
  if (!(oracle_error <= kOracleTolerance)) {
    return Status::Internal(slam::StringPrintf(
        "oracle check failed: max rel error %.3g > %.0e on %s", oracle_error,
        kOracleTolerance, task.grid.ToString().c_str()));
  }
  if (workload.threads() > 1) {
    SLAM_ASSIGN_OR_RETURN(DensityMap serial, slam::ComputeKdv(task, kMethod));
    SLAM_ASSIGN_OR_RETURN(slam::testing::OracleReport report,
                          slam::testing::CompareToReference(map, serial));
    if (!(report.max_rel_error <= kOracleTolerance)) {
      return Status::Internal(slam::StringPrintf(
          "parallel raster differs from serial: max rel error %.3g",
          report.max_rel_error));
    }
  }
  return Status::OK();
}

// -- Workloads ------------------------------------------------------------

namespace {

Result<slam::PointDataset> LoadInput(const std::string& csv_path,
                                     Tracer* tracer) {
  ScopedSpan span(tracer, "data.csv_load");
  return slam::LoadDatasetCsv(csv_path);
}

class ExportWorkload : public Workload {
 public:
  explicit ExportWorkload(uint64_t seed) : cycle_(seed) {}

  Status SetUp(const std::string& csv_path, Tracer* tracer) override {
    SLAM_ASSIGN_OR_RETURN(dataset_, LoadInput(csv_path, tracer));
    {
      ScopedSpan span(tracer, "kdv.scott_bandwidth");
      SLAM_ASSIGN_OR_RETURN(scott_, slam::ScottBandwidth(dataset_.coords()));
    }
    {
      ScopedSpan span(tracer, "kdv.make_task");
      SLAM_ASSIGN_OR_RETURN(slam::Viewport viewport,
                            slam::DatasetViewport(dataset_, 1280, 960));
      task_ = slam::MakeTask(dataset_, viewport,
                             slam::KernelType::kEpanechnikov, scott_);
    }
    return Render(tracer).status();
  }

  Result<DensityMap> Step(Tracer* tracer) override {
    task_.bandwidth = scott_ * cycle_.Next();
    return Render(tracer);
  }

  Result<DensityMap> Render(Tracer* tracer) override {
    ScopedSpan span(tracer, "kdv.compute_parallel");
    slam::ParallelOptions options;
    options.num_threads = threads_;
    return slam::ComputeKdvParallel(task_, kMethod, options);
  }

  KdvTask CurrentTask() const override { return task_; }
  int threads() const override { return threads_; }
  int period() const override { return BandwidthCycle::kSteps; }

 private:
  BandwidthCycle cycle_;
  const int threads_ = ExportThreads();
  slam::PointDataset dataset_;
  double scott_ = 0.0;
  KdvTask task_;
};

class SessionWorkload : public Workload {
 public:
  SessionWorkload(int width, int height) : width_(width), height_(height) {}

  Status SetUp(const std::string& csv_path, Tracer* tracer) override {
    SLAM_ASSIGN_OR_RETURN(slam::PointDataset dataset,
                          LoadInput(csv_path, tracer));
    {
      // Create() picks Scott's bandwidth on the data.
      ScopedSpan span(tracer, "explore.session_create");
      slam::SessionConfig config;
      config.width_px = width_;
      config.height_px = height_;
      config.method = kMethod;
      SLAM_ASSIGN_OR_RETURN(
          slam::ExplorerSession session,
          slam::ExplorerSession::Create(std::move(dataset), config));
      session_.emplace(std::move(session));
    }
    SLAM_RETURN_NOT_OK(FirstFrame(tracer));
    return Render(tracer).status();
  }

  Result<DensityMap> Render(Tracer* tracer) override {
    ScopedSpan span(tracer, "explore.render");
    return session_->Render();
  }

  KdvTask CurrentTask() const override {
    return slam::MakeTask(session_->active_data(), session_->viewport(),
                          session_->kernel(), session_->bandwidth());
  }

 protected:
  /// Session state the user sets before the first frame.
  virtual Status FirstFrame(Tracer*) { return Status::OK(); }

  std::optional<slam::ExplorerSession> session_;

 private:
  const int width_;
  const int height_;
};

class PanZoomWorkload : public SessionWorkload {
 public:
  // Portrait phone view: height > width, so every frame transposes (RAO).
  explicit PanZoomWorkload(uint64_t seed)
      : SessionWorkload(720, 1280), walk_(seed) {}

  Result<DensityMap> Step(Tracer* tracer) override {
    SLAM_RETURN_NOT_OK(ApplyViewOp(&*session_, walk_.Next(), tracer));
    return Render(tracer);
  }

  int period() const override { return PanZoomWalk::TourOps(); }

 private:
  PanZoomWalk walk_;
};

class TimeSliderWorkload : public SessionWorkload {
 public:
  explicit TimeSliderWorkload(uint64_t seed)
      : SessionWorkload(1280, 960), seed_(seed) {}

  Result<DensityMap> Step(Tracer* tracer) override {
    SLAM_RETURN_NOT_OK(SetWindow(tracer));
    return Render(tracer);
  }

  int period() const override { return slider_ ? slider_->windows() : 1; }

 protected:
  Status FirstFrame(Tracer* tracer) override {
    // No filter is active yet, so the active data is the whole dataset.
    const auto times = session_->active_data().event_times();
    const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
    slider_.emplace(seed_, *lo, *hi);
    return SetWindow(tracer);
  }

 private:
  Status SetWindow(Tracer* tracer) {
    ScopedSpan span(tracer, "explore.filter");
    return session_->SetFilter(slider_->Next());
  }

  const uint64_t seed_;
  std::optional<TimeSlider> slider_;
};

}  // namespace

Status ApplyViewOp(slam::ExplorerSession* session, const ViewOp& op,
                   Tracer* tracer) {
  if (op.zoom != 1.0) {
    ScopedSpan span(tracer, "explore.zoom");
    SLAM_RETURN_NOT_OK(session->Zoom(op.zoom));
  }
  if (op.pan_x != 0.0 || op.pan_y != 0.0) {
    ScopedSpan span(tracer, "explore.pan");
    SLAM_RETURN_NOT_OK(session->Pan(op.pan_x, op.pan_y));
  }
  return Status::OK();
}

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind, uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kExport:
      return std::make_unique<ExportWorkload>(seed);
    case WorkloadKind::kPanZoom:
      return std::make_unique<PanZoomWorkload>(seed);
    case WorkloadKind::kTimeSlider:
      return std::make_unique<TimeSliderWorkload>(seed);
  }
  return nullptr;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) != 0) continue;
    // "VmHWM:   59944 kB"
    const std::string_view rest = slam::Trim(line + 6);
    const auto parsed = slam::ParseDouble(rest.substr(0, rest.find(' ')));
    if (parsed.ok()) kb = *parsed;
    break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
