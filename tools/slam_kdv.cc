// slam_kdv: command-line KDV generator — the tool an analyst would run on
// a municipal CSV export (or a built-in synthetic city) to produce a
// hotspot image plus a ranked hotspot table.
//
// Examples:
//   slam_kdv --city seattle --scale 0.02 --output hotspots.ppm
//   slam_kdv --input events.csv --kernel quartic --width 1280 --height 960
//   slam_kdv --city ny --filter-year 2019 --hotspots 5 --ascii
//   slam_kdv --city sf --method scan --compare   (oracle cross-check)
#include <cstdio>
#include <cstdlib>

#include "analysis/hotspot.h"
#include "data/csv_io.h"
#include "data/generators.h"
#include "explore/degrade.h"
#include "explore/filter.h"
#include "explore/viewport_ops.h"
#include "simd/dispatch.h"
#include "kdv/bandwidth.h"
#include "kdv/engine.h"
#include "kdv/parallel.h"
#include "testing/oracle.h"
#include "util/exec_context.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/validate.h"
#include "viz/ascii.h"
#include "viz/render.h"

namespace slam {
namespace {

// Half-resolution rungs --degrade may descend before giving up (or, with
// --degrade sample, before the Z-order sampled rung).
constexpr int kMaxHalvings = 2;

Result<City> CityFromName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "seattle") return City::kSeattle;
  if (lower == "la" || lower == "losangeles" || lower == "los-angeles") {
    return City::kLosAngeles;
  }
  if (lower == "ny" || lower == "newyork" || lower == "new-york") {
    return City::kNewYork;
  }
  if (lower == "sf" || lower == "sanfrancisco" || lower == "san-francisco") {
    return City::kSanFrancisco;
  }
  return Status::InvalidArgument("unknown city '" + name +
                                 "' (seattle, la, ny, sf)");
}

int RunOrDie(int argc, char** argv) {
  std::string input, city = "seattle", method_name = "slam_bucket_rao";
  std::string kernel_name = "epanechnikov", output = "kdv.ppm";
  std::string colormap_name = "heat";
  double scale = 0.02, bandwidth = 0.0, bandwidth_scale = 1.0, gamma = 0.5;
  int width = 640, height = 480, filter_year = 0, category = -1;
  int hotspots = 0, threads = 1;
  std::string diff_reference, degrade_name = "off", simd_name = "auto";
  int64_t seed = 42, timeout_ms = 0, memory_budget_mb = 0;
  bool ascii = false, compare = false, sanitize = false, recenter = true;

  FlagParser parser(
      "slam_kdv: exact kernel density visualization via sweep line "
      "algorithms (SIGMOD 2022 reproduction)");
  parser.AddString("input", &input,
                   "CSV with x,y[,time[,category]] columns; empty = use "
                   "--city synthetic data");
  parser.AddString("city", &city, "synthetic dataset: seattle, la, ny, sf");
  parser.AddDouble("scale", &scale,
                   "synthetic dataset size as a fraction of the paper's n");
  parser.AddInt64("seed", &seed, "synthetic generator seed");
  parser.AddString("method", &method_name,
                   "scan, rqs_kd, rqs_ball, z-order, akde, quad, slam_sort, "
                   "slam_bucket, slam_sort_rao, slam_bucket_rao");
  parser.AddString("kernel", &kernel_name,
                   "uniform, epanechnikov, quartic (gaussian: non-SLAM only)");
  parser.AddDouble("bandwidth", &bandwidth,
                   "bandwidth in data units; 0 = Scott's rule");
  parser.AddDouble("bandwidth-scale", &bandwidth_scale,
                   "multiplier on the chosen bandwidth");
  parser.AddInt("width", &width, "raster width in pixels");
  parser.AddInt("height", &height, "raster height in pixels");
  parser.AddInt("filter-year", &filter_year,
                "keep only events of this calendar year (0 = all)");
  parser.AddInt("category", &category,
                "keep only this event category (-1 = all)");
  parser.AddInt("hotspots", &hotspots,
                "extract and print the top-N hotspots (0 = off)");
  parser.AddInt("threads", &threads,
                "worker threads for the row-parallel wrapper (1 = serial)");
  parser.AddString("output", &output, "output PPM path (empty = no image)");
  parser.AddString("colormap", &colormap_name, "heat, grayscale, viridis");
  parser.AddDouble("gamma", &gamma, "colormap gamma (<1 boosts hotspots)");
  parser.AddBool("ascii", &ascii, "also print an ASCII heat map");
  parser.AddBool("compare", &compare,
                 "cross-check the result against the SCAN oracle");
  parser.AddString("diff", &diff_reference,
                   "report per-pixel error against a reference: a method "
                   "name, or 'reference' for the long-double oracle SCAN");
  parser.AddBool("recenter", &recenter,
                 "shift far-from-origin tasks to a local frame before "
                 "computing (--no-recenter exposes raw conditioning)");
  parser.AddInt64("timeout-ms", &timeout_ms,
                  "abort the computation after this many milliseconds "
                  "(0 = unlimited)");
  parser.AddInt64("memory-budget-mb", &memory_budget_mb,
                  "cap on auxiliary (workspace + index) memory in MiB; "
                  "methods refuse to start or stop when exceeded "
                  "(0 = unlimited)");
  parser.AddBool("sanitize", &sanitize,
                 "drop input rows with NaN/Inf coordinates instead of "
                 "failing");
  parser.AddString("degrade", &degrade_name,
                   "under deadline/memory pressure serve a reduced-fidelity "
                   "answer: off, halfres, sample");
  parser.AddString("simd", &simd_name,
                   "sweep-method instruction-set backend: auto, scalar, "
                   "avx2 (pinning an unavailable one fails)");

  const auto positional = parser.Parse(argc, argv);
  positional.status().AbortIfNotOk();
  if (parser.help_requested()) {
    std::printf("%s", parser.Usage().c_str());
    return 0;
  }
  if (!positional->empty()) {
    std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                 (*positional)[0].c_str(), parser.Usage().c_str());
    return 2;
  }

  // ---- Data --------------------------------------------------------
  // Exit code 2 = bad input or usage (distinct from 3 = timeout and
  // 4 = memory budget): an unreadable or malformed file is the caller's
  // problem and gets a clear message, never an unhandled-Status abort.
  PointDataset dataset;
  if (!input.empty()) {
    CsvLoadOptions load_options;
    load_options.sanitize = sanitize;
    size_t dropped = 0;
    auto loaded = LoadDatasetCsv(input, load_options, &dropped);
    if (!loaded.ok()) {
      std::fprintf(stderr, "slam_kdv: cannot load '%s': %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 2;
    }
    dataset = *std::move(loaded);
    if (dropped > 0) {
      std::fprintf(stderr, "warning: dropped %zu row(s) with non-finite coordinates\n",
                   dropped);
    }
    if (dataset.empty()) {
      std::fprintf(stderr, "slam_kdv: '%s' contains no usable rows\n",
                   input.c_str());
      return 2;
    }
  } else {
    auto which = CityFromName(city);
    if (!which.ok()) {
      std::fprintf(stderr, "slam_kdv: %s\n",
                   which.status().message().c_str());
      return 2;
    }
    auto generated =
        GenerateCityDataset(*which, scale, static_cast<uint64_t>(seed));
    generated.status().AbortIfNotOk();
    dataset = *std::move(generated);
  }
  std::printf("dataset: %s, n = %s\n", dataset.name().c_str(),
              FormatWithCommas(static_cast<int64_t>(dataset.size())).c_str());

  EventFilter filter;
  if (filter_year > 0) {
    filter.time_begin = UnixFromDate(filter_year, 1, 1).ValueOrDie();
    filter.time_end = UnixFromDate(filter_year + 1, 1, 1).ValueOrDie() - 1;
  }
  if (category >= 0) filter.categories = {category};
  if (!filter.IsNoop()) {
    auto filtered = ApplyFilter(dataset, filter);
    filtered.status().AbortIfNotOk();
    dataset = *std::move(filtered);
    std::printf("after filter: n = %s\n",
                FormatWithCommas(static_cast<int64_t>(dataset.size())).c_str());
    if (dataset.empty()) {
      std::fprintf(stderr, "filter matched no events\n");
      return 1;
    }
  }

  // ---- Task --------------------------------------------------------
  const auto method = MethodFromName(method_name);
  if (!method.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n", method.status().message().c_str());
    return 2;
  }
  const auto kernel = KernelTypeFromName(kernel_name);
  if (!kernel.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n", kernel.status().message().c_str());
    return 2;
  }
  if (bandwidth <= 0.0) {
    const auto scott = ScottBandwidth(dataset.coords());
    if (!scott.ok()) {
      std::fprintf(stderr,
                   "slam_kdv: cannot estimate a bandwidth for this input "
                   "(%s); pass --bandwidth explicitly\n",
                   scott.status().message().c_str());
      return 2;
    }
    bandwidth = *scott;
    std::printf("Scott bandwidth: %.2f\n", bandwidth);
  }
  bandwidth *= bandwidth_scale;
  if (const Status valid = CheckBandwidth(bandwidth); !valid.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n", valid.message().c_str());
    return 2;
  }
  const auto viewport = DatasetViewport(dataset, width, height);
  if (!viewport.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n",
                 viewport.status().message().c_str());
    return 2;
  }
  const KdvTask task = MakeTask(dataset, *viewport, *kernel, bandwidth);

  // ---- Compute -----------------------------------------------------
  const auto degrade_mode = DegradeModeFromName(degrade_name);
  if (!degrade_mode.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n",
                 degrade_mode.status().message().c_str());
    return 2;
  }
  if (*degrade_mode != DegradeMode::kOff && threads > 1) {
    std::fprintf(stderr,
                 "--degrade runs the serial degradation ladder and is "
                 "incompatible with --threads > 1\n");
    return 2;
  }

  const Deadline deadline(static_cast<double>(timeout_ms) / 1e3);
  MemoryBudget budget(static_cast<size_t>(memory_budget_mb) << 20);
  ExecContext exec;
  // One request deadline shared by every ladder rung: once it expires,
  // each later rung fails before doing any work.
  if (timeout_ms > 0) exec.set_deadline(&deadline);
  if (memory_budget_mb > 0) exec.set_memory_budget(&budget);
  const auto simd = SimdLevelFromName(simd_name);
  if (!simd.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n", simd.status().message().c_str());
    return 2;
  }
  // Usage error, not an abort: a pinned backend this machine cannot run is
  // caught before any work starts (the engine would reject it anyway).
  if (const auto resolved = ResolveSimdLevel(*simd); !resolved.ok()) {
    std::fprintf(stderr, "slam_kdv: %s\n",
                 resolved.status().message().c_str());
    return 2;
  }
  EngineOptions engine;
  engine.compute.exec = &exec;
  engine.compute.simd = *simd;
  engine.sanitize = sanitize;
  engine.recenter_coordinates = recenter;

  Timer timer;
  Result<DensityMap> map = Status::Internal("unset");
  Method served_method = *method;
  Fidelity fidelity = Fidelity::kFull;
  if (threads > 1) {
    ParallelOptions parallel;
    parallel.num_threads = threads;
    parallel.engine = engine;
    map = ComputeKdvParallel(task, *method, parallel);
  } else {
    // --degrade off is the ladder's single full-resolution rung.
    auto outcome = RenderOnLadder(dataset, *viewport, *kernel, bandwidth,
                                  *method, engine, *degrade_mode,
                                  kMaxHalvings, /*rung_budget_seconds=*/0.0);
    if (outcome.ok()) {
      if (outcome->degrade_level > 0) {
        std::printf("degraded: served %s (ladder level %d)\n",
                    std::string(FidelityName(outcome->fidelity)).c_str(),
                    outcome->degrade_level);
      }
      served_method = outcome->method;
      fidelity = outcome->fidelity;
      map = std::move(outcome->map);
    } else {
      map = outcome.status();
    }
  }
  if (!map.ok()) {
    const StatusCode code = map.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      std::fprintf(stderr, "timed out after %s: %s\n",
                   FormatDuration(timer.ElapsedSeconds()).c_str(),
                   map.status().message().c_str());
      return 3;
    }
    if (code == StatusCode::kResourceExhausted) {
      std::fprintf(stderr, "memory budget of %lld MiB too small: %s\n",
                   static_cast<long long>(memory_budget_mb),
                   map.status().message().c_str());
      return 4;
    }
  }
  map.status().AbortIfNotOk();
  std::printf("%s (%s kernel, b=%.2f, %dx%d): %s\n",
              std::string(MethodName(served_method)).c_str(),
              std::string(KernelTypeName(*kernel)).c_str(), bandwidth,
              map->width(), map->height(),
              FormatDuration(timer.ElapsedSeconds()).c_str());

  // The oracle/diff/hotspot blocks below compare against the full-resolution
  // task; a degraded map has different geometry, so they are skipped.
  if (fidelity != Fidelity::kFull && (compare || !diff_reference.empty())) {
    std::fprintf(stderr,
                 "skipping --compare/--diff: the served map is degraded "
                 "(%s)\n",
                 std::string(FidelityName(fidelity)).c_str());
    compare = false;
    diff_reference.clear();
  }

  if (compare) {
    const auto oracle = ComputeKdv(task, Method::kScan);
    oracle.status().AbortIfNotOk();
    const auto cmp = oracle->CompareTo(*map);
    cmp.status().AbortIfNotOk();
    std::printf("vs SCAN oracle: max abs diff %.3g, max rel diff %.3g\n",
                cmp->max_abs_diff, cmp->max_rel_diff);
  }

  if (!diff_reference.empty()) {
    Result<DensityMap> reference = Status::Internal("unset");
    if (ToLower(diff_reference) == "reference") {
      reference = testing::ReferenceScan(task, &exec);
    } else {
      const auto ref_method = MethodFromName(diff_reference);
      ref_method.status().AbortIfNotOk();
      reference = ComputeKdv(task, *ref_method, engine);
    }
    reference.status().AbortIfNotOk();
    const auto report = testing::CompareToReference(*map, *reference);
    report.status().AbortIfNotOk();
    std::printf(
        "vs %s: max rel err %.4g, max abs err %.4g, max ulps %lld, worst "
        "pixel (%d, %d) value %.17g ref %.17g\n",
        diff_reference.c_str(), report->max_rel_error, report->max_abs_error,
        static_cast<long long>(report->max_ulps), report->worst_ix,
        report->worst_iy, report->worst_value, report->worst_reference);
  }

  // ---- Outputs -----------------------------------------------------
  if (hotspots > 0 && fidelity != Fidelity::kFull) {
    std::fprintf(stderr,
                 "skipping --hotspots: geo coordinates assume the "
                 "full-resolution grid and the served map is degraded\n");
    hotspots = 0;
  }
  if (hotspots > 0) {
    HotspotOptions hs;
    hs.relative_threshold = 0.5;
    hs.min_pixels = 4;
    hs.max_hotspots = hotspots;
    const auto found = ExtractHotspots(*map, hs);
    found.status().AbortIfNotOk();
    std::printf("\ntop %zu hotspots (>= 50%% of peak density):\n",
                found->size());
    std::printf("  rank  pixels  peak        geo peak (x, y)\n");
    for (const Hotspot& h : *found) {
      const Point geo = RasterToGeo(task.grid, h.peak_x, h.peak_y);
      std::printf("  %-4d  %-6lld  %-10.4g  (%.1f, %.1f)\n", h.id + 1,
                  static_cast<long long>(h.pixel_count), h.peak_density,
                  geo.x, geo.y);
    }
  }
  if (!output.empty()) {
    RenderOptions render;
    const auto cm = ColorMapFromName(colormap_name);
    cm.status().AbortIfNotOk();
    render.colormap = *cm;
    render.gamma = gamma;
    WriteDensityPpm(*map, output, render).AbortIfNotOk();
    std::printf("wrote %s\n", output.c_str());
  }
  if (ascii) {
    const auto art = RenderAscii(*map);
    art.status().AbortIfNotOk();
    std::printf("\n%s", art->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace slam

int main(int argc, char** argv) { return slam::RunOrDie(argc, argv); }
