// The benchmark's three workloads (README.md): seeded inputs, seeded op
// scripts, and the correctness checks every timed render is subject to.
// Everything here goes through the library's public façade — engine,
// parallel wrapper, ExplorerSession, filters, CSV IO — plus the oracle in
// testing/oracle.h, so internal rewrites of core/ and simd/ never require
// editing this file.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "explore/filter.h"
#include "explore/session.h"
#include "kdv/density_map.h"
#include "kdv/engine.h"
#include "kdv/task.h"
#include "trace.h"
#include "util/random.h"
#include "util/result.h"

namespace perfbench {

enum class WorkloadKind { kExport, kPanZoom, kTimeSlider };

slam::Result<WorkloadKind> WorkloadFromName(std::string_view name);
std::string_view WorkloadName(WorkloadKind kind);

/// Seattle preset at a quarter of the paper's n: 215,718 points.
inline constexpr double kCityScale = 0.25;
/// The session default, and the method every workload renders with.
inline constexpr slam::Method kMethod = slam::Method::kSlamBucketRao;
/// Minimum ops per run, so at least 10 samples lie beyond the p90.
inline constexpr int kMinOps = 100;
/// The repository's oracle bound: peak-floored relative error.
inline constexpr double kOracleTolerance = 1e-9;
/// Pixels on the strided sub-lattice each sampled render is checked on.
inline constexpr int kOraclePixels = 432;

/// Threads for the export workload: min(4, hardware threads).
int ExportThreads();

/// Writes the workload input as CSV: a seeded sample of kCityScale x the
/// paper's n events from the Seattle preset city generated at twice that
/// size with the generator's default seed. Every seed draws different
/// events from the same city, so the hotspots a view lands on — which set
/// the cost of a zoomed frame — are the same for every seed.
slam::Status WriteInputCsv(uint64_t seed, const std::string& path);

// -- Seeded op scripts -------------------------------------------------

/// export: a seeded order of a fixed 16-step geometric ladder of bandwidth
/// factors from 0.5x to 2x Scott, cycled. Every run renders the same
/// multiset of bandwidths (only the order is seeded), and no two
/// consecutive renders share a bandwidth.
class BandwidthCycle {
 public:
  static constexpr int kSteps = 16;
  explicit BandwidthCycle(uint64_t seed);
  double Next();

 private:
  std::vector<double> factors_;
  size_t next_ = 0;
};

/// One pan/zoom user action: Zoom(zoom) when zoom != 1, then
/// Pan(pan_x, pan_y) when either is non-zero (a zoom out near an edge is
/// followed by the pan that brings the view back inside the MBR).
struct ViewOp {
  double zoom = 1.0;
  double pan_x = 0.0;
  double pan_y = 0.0;
};

/// pan_zoom: a seeded walk over a fixed, mirror-symmetric tour of
/// TourOps() ops, repeated. The tour is four excursions, one toward each
/// quadrant of the MBR: from 1x, zoom in level by level to 1/16x (per axis)
/// with three +-0.3-screen pans after each zoom in, then zoom back out to
/// 1x with three pans after each zoom out above 1x — 8 zooms and 21 pans
/// per excursion. Pans are clamped so the view stays inside the MBR. The
/// seed orders the excursions and the pans within each level; which views
/// a tour visits is fixed, because the cost of a zoomed frame depends on
/// where it looks, and a free random walk made the median frame time
/// differ by a quarter from seed to seed. Every excursion starts and ends
/// on the full MBR, so each repeat of the tour renders the same frames.
class PanZoomWalk {
 public:
  static constexpr int kMaxLevel = 4;
  static constexpr double kPanStep = 0.3;
  static constexpr int kPansPerLevel = 3;
  static constexpr int kExcursionOps =
      2 * kMaxLevel + kPansPerLevel * (2 * kMaxLevel - 1);
  static constexpr int TourOps() { return 4 * kExcursionOps; }

  explicit PanZoomWalk(uint64_t seed);
  ViewOp Next();

 private:
  /// Appends the ops of the excursion toward `quadrant` to plan_.
  void PlanExcursion(int quadrant, slam::Rng* rng);
  /// Appends a zoom by `ratio` and its clamping pan to plan_.
  void PlanZoom(double ratio);
  /// Appends a pan by (dx, dy) screens, clamped to the MBR, to plan_.
  void PlanPan(double dx, double dy);

  std::vector<ViewOp> plan_;  // the tour
  size_t next_op_ = 0;
  int plan_at_ = 0;  // zoom level (log2 of 1/width) while planning
  // View center as a fraction of the MBR, per axis, while planning.
  double cx_ = 0.5;
  double cy_ = 0.5;
};

/// time_slider: a 90-day event-time window stepped 7 days at a time
/// across [data_begin, data_end] from a seeded start; after the last
/// window that fits, it starts over at the first. One cycle is windows()
/// ops and renders every window once.
class TimeSlider {
 public:
  static constexpr int64_t kDay = 86400;
  static constexpr int64_t kWindow = 90 * kDay;
  static constexpr int64_t kStep = 7 * kDay;
  TimeSlider(uint64_t seed, int64_t data_begin, int64_t data_end);
  slam::EventFilter Next();
  int windows() const { return windows_; }

 private:
  int64_t begin_;
  int windows_;  // window starts begin_ + i * kStep, i < windows_, that fit
  int next_;     // index of the next window
};

// -- Sub-lattice oracle check --------------------------------------------

/// Pixels (x0 + i*sx, y0 + j*sy), i < nx, j < ny, of a grid.
struct SubLattice {
  int x0 = 0, sx = 1, nx = 0;
  int y0 = 0, sy = 1, ny = 0;
};

/// A square-strided sub-lattice of about `target_pixels` pixels with a
/// seeded offset.
SubLattice ChooseSubLattice(const slam::Grid& grid, int target_pixels,
                            slam::Rng* rng);
/// The task restricted to the sub-lattice's pixel centers.
slam::Result<slam::KdvTask> SubLatticeTask(const slam::KdvTask& task,
                                           const SubLattice& lattice);
/// The sub-lattice's pixels of a full raster.
slam::Result<slam::DensityMap> ExtractSubLattice(const slam::DensityMap& map,
                                                 const SubLattice& lattice);
/// Max peak-floored relative error of `map` (a render of `task`) against
/// the long-double reference scan, on the sub-lattice only.
slam::Result<double> SubLatticeOracleError(const slam::KdvTask& task,
                                           const slam::DensityMap& map,
                                           const SubLattice& lattice);

// -- Workloads ------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// User-visible set-up: CSV load, Scott bandwidth, task or session
  /// creation, and the first render.
  virtual slam::Status SetUp(const std::string& csv_path, Tracer* tracer) = 0;
  /// One op: the next scripted user action plus its render.
  virtual slam::Result<slam::DensityMap> Step(Tracer* tracer) = 0;
  /// Re-renders the current state without advancing the script (warm-up).
  virtual slam::Result<slam::DensityMap> Render(Tracer* tracer) = 0;
  /// The task the last render computed; its points stay valid until the
  /// next Step.
  virtual slam::KdvTask CurrentTask() const = 0;
  /// Threads each render runs on (> 1 only for ComputeKdvParallel).
  virtual int threads() const { return 1; }
  /// Ops in one cycle of the script: op i and op i + period() are the same
  /// user action on the same state. A run stops only after whole cycles,
  /// so every run renders the same mix of views.
  virtual int period() const { return 1; }
};

std::unique_ptr<Workload> MakeWorkload(WorkloadKind kind, uint64_t seed);

/// Applies one pan/zoom action to a session, as the pan_zoom workload does.
slam::Status ApplyViewOp(slam::ExplorerSession* session, const ViewOp& op,
                         Tracer* tracer);

/// Checks one render of `workload`'s current task: the sub-lattice oracle
/// check, plus (for a parallel render) agreement with the serial
/// ComputeKdv raster. Returns a non-OK status describing the first failure.
slam::Status CheckRender(const Workload& workload, const slam::DensityMap& map,
                         slam::Rng* rng);

/// Process peak resident set (VmHWM) in MB; 0 when unavailable.
double PeakRssMb();

}  // namespace perfbench
