#include "explore/degrade.h"

#include <algorithm>
#include <utility>

#include "kdv/task.h"
#include "util/exec_context.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace slam {

std::string_view FidelityName(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kFull:
      return "full";
    case Fidelity::kHalfRes:
      return "halfres";
    case Fidelity::kSampled:
      return "sampled";
  }
  return "?";
}

std::string_view DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kOff:
      return "off";
    case DegradeMode::kHalfRes:
      return "halfres";
    case DegradeMode::kSample:
      return "sample";
  }
  return "?";
}

Result<DegradeMode> DegradeModeFromName(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "off" || lower == "none") return DegradeMode::kOff;
  if (lower == "halfres" || lower == "half-res" || lower == "half") {
    return DegradeMode::kHalfRes;
  }
  if (lower == "sample" || lower == "sampled") return DegradeMode::kSample;
  return Status::InvalidArgument("unknown degrade mode '" + std::string(name) +
                                 "' (off, halfres, sample)");
}

std::optional<DegradeStep> DegradeLadderStep(DegradeMode mode, int level,
                                             int max_halvings, int full_width,
                                             int full_height, Method method) {
  if (level < 0) return std::nullopt;
  const int halvings = std::max(0, max_halvings);
  const auto at_shift = [&](int shift) {
    DegradeStep step;
    step.width = std::max(1, full_width >> shift);
    step.height = std::max(1, full_height >> shift);
    step.method = method;
    return step;
  };
  if (level == 0) return at_shift(0);  // full fidelity, any mode
  switch (mode) {
    case DegradeMode::kOff:
      return std::nullopt;
    case DegradeMode::kHalfRes: {
      if (level > halvings) return std::nullopt;
      DegradeStep step = at_shift(level);
      step.fidelity = Fidelity::kHalfRes;
      return step;
    }
    case DegradeMode::kSample: {
      if (level <= halvings) {
        DegradeStep step = at_shift(level);
        step.fidelity = Fidelity::kHalfRes;
        return step;
      }
      if (level == halvings + 1) {
        // The last resort: Z-order sampled subset at the coarsest rung.
        // Approximate but cheap — its cost scales with the sample, not n.
        DegradeStep step = at_shift(halvings);
        step.method = Method::kZorder;
        step.fidelity = Fidelity::kSampled;
        return step;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

Result<RenderOutcome> RenderOnLadder(const PointDataset& data,
                                     const Viewport& viewport,
                                     KernelType kernel, double bandwidth,
                                     Method method,
                                     const EngineOptions& engine,
                                     DegradeMode mode, int max_halvings,
                                     double rung_budget_seconds) {
  const ExecContext* base_exec = engine.compute.exec;
  RenderOutcome outcome;
  for (int level = 0;; ++level) {
    const auto step =
        DegradeLadderStep(mode, level, max_halvings, viewport.width_px(),
                          viewport.height_px(), method);
    if (!step) break;  // ladder exhausted
    // Each rung gets its own deadline (a Deadline cannot be re-armed);
    // cancellation, budget and fault injector pass through unchanged.
    ExecContext rung_exec;
    if (base_exec != nullptr) rung_exec = *base_exec;
    Deadline rung_deadline(rung_budget_seconds);
    if (rung_budget_seconds > 0.0) rung_exec.set_deadline(&rung_deadline);
    EngineOptions rung_engine = engine;
    rung_engine.compute.exec = &rung_exec;

    SLAM_ASSIGN_OR_RETURN(
        const Viewport rung_viewport,
        Viewport::Create(viewport.region(), step->width, step->height));
    const KdvTask task = MakeTask(data, rung_viewport, kernel, bandwidth);
    auto map = ComputeKdv(task, step->method, rung_engine);
    if (map.ok()) {
      outcome.map = *std::move(map);
      outcome.degrade_level = level;
      outcome.fidelity = step->fidelity;
      outcome.method = step->method;
      return outcome;
    }
    if (level == 0) outcome.full_res_status = map.status();
    // DeadlineExceeded / ResourceExhausted are pressure, answerable at a
    // lower rung; Cancelled is the user saying "stop", and anything else
    // (InvalidArgument, IoError, ...) would fail identically at any rung.
    const bool degradable = map.status().IsDeadlineExceeded() ||
                            map.status().IsResourceExhausted();
    if (!degradable) return map.status();
  }
  return outcome.full_res_status;
}

}  // namespace slam
