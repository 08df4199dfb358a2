// slam_diff: differential correctness gate. Renders the same KdvTask with
// every requested method and reports each one's per-pixel error against
// the long-double reference SCAN (testing/oracle.h). Exits non-zero when
// any method exceeds the relative-error threshold, so CI can run it as a
// gate on adversarially-offset datasets.
//
// Examples:
//   slam_diff --city seattle --scale 0.002
//   slam_diff --city sf --offset-x 1e7 --offset-y -1e7 --kernel all
//   slam_diff --input events.csv --methods slam_bucket_rao,quad --max-rel-error 1e-10
#include <cstdio>
#include <string>
#include <vector>

#include "data/csv_io.h"
#include "data/generators.h"
#include "explore/viewport_ops.h"
#include "kdv/bandwidth.h"
#include "kdv/engine.h"
#include "simd/dispatch.h"
#include "testing/oracle.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/validate.h"

namespace slam {
namespace {

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

Result<std::vector<KernelType>> ParseKernels(const std::string& name) {
  if (ToLower(name) == "all") {
    // The three SLAM-decomposable kernels; Gaussian has no sweep method to
    // diff, so "all" means "all kernels every method supports".
    return std::vector<KernelType>{KernelType::kUniform,
                                   KernelType::kEpanechnikov,
                                   KernelType::kQuartic};
  }
  SLAM_ASSIGN_OR_RETURN(KernelType k, KernelTypeFromName(name));
  return std::vector<KernelType>{k};
}

Result<std::vector<Method>> ParseMethods(const std::string& list) {
  if (ToLower(list) == "all") {
    return std::vector<Method>(AllMethods().begin(), AllMethods().end());
  }
  std::vector<Method> out;
  for (const std::string_view name : Split(list, ',')) {
    SLAM_ASSIGN_OR_RETURN(Method m, MethodFromName(std::string(Trim(name))));
    out.push_back(m);
  }
  if (out.empty()) {
    return Status::InvalidArgument("--methods selected no methods");
  }
  return out;
}

int RunOrDie(int argc, char** argv) {
  std::string input, city = "seattle", methods_flag = "all";
  std::string kernel_name = "all", simd_name = "auto";
  double scale = 0.002, bandwidth = 0.0, bandwidth_scale = 1.0;
  double offset_x = 0.0, offset_y = 0.0, max_rel_error = 1e-9;
  int width = 96, height = 72;
  int64_t seed = 42;
  bool recenter = true;

  FlagParser parser(
      "slam_diff: differential correctness oracle — every method vs the "
      "long-double reference SCAN");
  parser.AddString("input", &input,
                   "CSV with x,y columns; empty = use --city synthetic data");
  parser.AddString("city", &city, "synthetic dataset: seattle, la, ny, sf");
  parser.AddDouble("scale", &scale,
                   "synthetic dataset size as a fraction of the paper's n "
                   "(keep small: the reference SCAN is O(XYn) long double)");
  parser.AddInt64("seed", &seed, "synthetic generator seed");
  parser.AddString("methods", &methods_flag,
                   "comma-separated method names, or 'all'");
  parser.AddString("kernel", &kernel_name,
                   "uniform, epanechnikov, quartic, or 'all'");
  parser.AddDouble("bandwidth", &bandwidth,
                   "bandwidth in data units; 0 = Scott's rule");
  parser.AddDouble("bandwidth-scale", &bandwidth_scale,
                   "multiplier on the chosen bandwidth");
  parser.AddInt("width", &width, "raster width in pixels");
  parser.AddInt("height", &height, "raster height in pixels");
  parser.AddDouble("offset-x", &offset_x,
                   "translate the dataset and viewport by this x offset "
                   "(adversarial conditioning, e.g. 1e7 for EPSG:3857 scale)");
  parser.AddDouble("offset-y", &offset_y, "same, y");
  parser.AddDouble("max-rel-error", &max_rel_error,
                   "failure threshold on the per-pixel relative error");
  parser.AddBool("recenter", &recenter,
                 "engine-level recentering (--no-recenter measures the raw "
                 "method conditioning)");
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

  // Bad flag *values* are usage errors (exit 2); failures while loading
  // data or computing keep the repo-wide AbortIfNotOk convention.
  const auto kernels = ParseKernels(kernel_name);
  const auto methods = ParseMethods(methods_flag);
  const auto simd = SimdLevelFromName(simd_name);
  const auto which = input.empty() ? CityFromName(city) : Result<City>(City::kSeattle);
  for (const Status& status :
       {kernels.status(), methods.status(), simd.status(), which.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                   parser.Usage().c_str());
      return 2;
    }
  }

  PointDataset dataset;
  if (!input.empty()) {
    auto loaded = LoadDatasetCsv(input, {});
    loaded.status().AbortIfNotOk();
    dataset = *std::move(loaded);
  } else {
    auto generated =
        GenerateCityDataset(*which, scale, static_cast<uint64_t>(seed));
    generated.status().AbortIfNotOk();
    dataset = *std::move(generated);
  }
  if (bandwidth <= 0.0) {
    const auto scott = ScottBandwidth(dataset.coords());
    scott.status().AbortIfNotOk();
    bandwidth = *scott;
  }
  bandwidth *= bandwidth_scale;
  if (const Status valid = CheckBandwidth(bandwidth); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  const auto viewport = DatasetViewport(dataset, width, height);
  viewport.status().AbortIfNotOk();

  KdvTask base_task =
      MakeTask(dataset, *viewport, KernelType::kEpanechnikov, bandwidth);
  // Adversarial translation: TranslatedTask shifts by (-dx, -dy), so
  // negate to *add* the offset to every coordinate.
  const TranslatedTask offset_task(base_task, -offset_x, -offset_y);

  std::printf(
      "slam_diff: %s, n = %zu, %dx%d, b = %.4g, offset = (%.4g, %.4g), "
      "threshold max_rel_error <= %.3g\n",
      dataset.name().c_str(), dataset.size(), width, height, bandwidth,
      offset_x, offset_y, max_rel_error);
  std::printf(
      "approximate methods run in their exact configuration (full Z-order "
      "sample, zero aKDE tolerance)%s\n\n",
      recenter ? "" : "; engine recentering disabled");

  EngineOptions engine = testing::ExactEngineOptions();
  engine.recenter_coordinates = recenter;
  engine.compute.simd = *simd;
  // Fail fast (usage error) on a pinned backend this machine cannot run,
  // and record what actually executes so CI logs show which path was gated.
  const auto resolved = ResolveSimdLevel(*simd);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 2;
  }
  std::printf("simd backend: %s\n\n",
              std::string(SimdLevelName(*resolved)).c_str());

  std::printf("%-12s  %-16s  %13s  %13s  %8s  %s\n", "kernel", "method",
              "max_rel_err", "max_abs_err", "max_ulps", "worst pixel");
  bool all_ok = true;
  for (const KernelType kernel : *kernels) {
    KdvTask task = offset_task.task();
    task.kernel = kernel;
    const auto reference = testing::ReferenceScan(task);
    reference.status().AbortIfNotOk();
    for (const Method method : *methods) {
      const auto report =
          testing::DiffAgainstReference(task, method, engine, *reference);
      if (!report.ok()) {
        std::printf("%-12s  %-16s  %s\n",
                    std::string(KernelTypeName(kernel)).c_str(),
                    std::string(MethodName(method)).c_str(),
                    report.status().ToString().c_str());
        all_ok = false;
        continue;
      }
      const bool ok = report->max_rel_error <= max_rel_error;
      all_ok = all_ok && ok;
      std::printf("%-12s  %-16s  %13.4g  %13.4g  %8lld  (%d, %d) %s\n",
                  std::string(KernelTypeName(kernel)).c_str(),
                  std::string(MethodName(method)).c_str(),
                  report->max_rel_error, report->max_abs_error,
                  static_cast<long long>(report->max_ulps), report->worst_ix,
                  report->worst_iy, ok ? "" : " <-- FAIL");
    }
  }
  std::printf("\n%s\n", all_ok ? "PASS: every method within threshold"
                               : "FAIL: threshold exceeded");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace slam

int main(int argc, char** argv) { return slam::RunOrDie(argc, argv); }
