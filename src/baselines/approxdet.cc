#include "src/baselines/approxdet.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/features/light.h"
#include "src/platform/gof_exec.h"
#include "src/sched/contention_estimator.h"
#include "src/util/rng.h"

namespace litereconfig {

namespace {

constexpr double kCalibrationEwma = 0.3;

}  // namespace

ApproxDetProtocol::ApproxDetProtocol(const TrainedModels* models) : models_(models) {
  assert(models_ != nullptr && models_->space != nullptr);
  assert(models_->mean_branch_accuracy.size() == models_->space->size());
}

size_t ApproxDetProtocol::Decide(const std::vector<double>& light, double gpu_cal,
                                 double cpu_cal, double slo_ms,
                                 int frames_remaining, bool* feasible) const {
  constexpr double kSloMargin = 0.93;
  const BranchSpace& space = *models_->space;
  double best_acc = -1.0;
  size_t best = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  size_t cheapest = 0;
  for (size_t b = 0; b < space.size(); ++b) {
    int effective_gof = std::min(space.at(b).gof, std::max(1, frames_remaining));
    double frame_ms =
        models_->latency.PredictFrameMs(b, light, gpu_cal, cpu_cal, effective_gof) *
            kKernelSlowdown +
        kPerFrameOverheadMs + kSchedulerMs / static_cast<double>(effective_gof);
    if (frame_ms < cheapest_ms) {
      cheapest_ms = frame_ms;
      cheapest = b;
    }
    if (frame_ms > slo_ms * kSloMargin) {
      continue;
    }
    if (models_->mean_branch_accuracy[b] > best_acc) {
      best_acc = models_->mean_branch_accuracy[b];
      best = b;
    }
  }
  if (feasible != nullptr) {
    *feasible = best_acc >= 0.0;
  }
  return best_acc >= 0.0 ? best : cheapest;
}

VideoRunStats ApproxDetProtocol::RunVideo(const SyntheticVideo& video,
                                          const RunEnv& env) {
  const BranchSpace& space = *models_->space;
  const VideoSpec& spec = video.spec();
  VideoRunStats stats;
  // Preallocated frame slots, written in place (see LiteReconfigProtocol).
  stats.frames.resize(static_cast<size_t>(video.frame_count()));
  Pcg32 rng(HashKeys({spec.seed, env.run_salt, 0xa99de7ull}));
  // The preheat probe's detections until the first GoF, then the last
  // anchor's slot.
  DetectionList probe_anchor;
  const DetectionList* anchor = &probe_anchor;
  // Per-video calibration state (see LiteReconfigProtocol::RunVideo).
  double gpu_cal = 1.0;
  std::optional<size_t> current;
  // Per-stream platform copy so fault-driven contention bursts stay local to
  // this video (see LiteReconfigProtocol::RunVideo).
  LatencyModel platform_local = *env.platform;
  const LatencyModel* platform = &platform_local;
  FaultRuntime faults(env.faults, spec.seed, video.frame_count(), env.fault_seed,
                      env.degrade, env.platform->contention().level(),
                      1000.0 / spec.fps);
  // Predictive mode: ApproxDet gets the same online contention estimator as
  // LiteReconfig (fair comparison) — plan at the forecast contention and
  // re-plan ahead of a forecast burst end instead of the binary fallback.
  bool predictive = env.predictive && env.degrade && faults.active();
  ContentionEstimator estimator;
  {
    // Preheat pass (see LiteReconfigProtocol): ApproxDet is contention-aware
    // too, through the same observe-and-calibrate mechanism.
    DetectorConfig probe{320, 10};
    probe_anchor = DetectorSim::Detect(video, 0, probe, DetectorQuality{},
                                       HashKeys({env.run_salt, 0xa94e47ull}));
    double observed = env.platform->Sample(
        env.platform->DetectorMs(probe) * kKernelSlowdown, rng);
    LatencyModel profiled(models_->device, 0.0);
    gpu_cal = observed / (profiled.DetectorMs(probe) * kKernelSlowdown);
  }
  TrackBatch arena;
  GofExecutor exec(video, env.run_salt, *platform, rng);
  exec.set_switching(env.switching, &stats.switch_count);
  int t = 0;
  // A tracker-only GoF (tail continuation or coast) on `from`'s coast
  // tracker, from the last emitted frame; every frame pays the framework
  // overhead.
  auto track_only_gof = [&](const Branch& from, int length, double penalty_ms,
                            bool coasted) {
    GofCost span = exec.TrackOnly(t, length, GofExecutor::CoastTracker(from),
                                  stats.frames[t - 1], arena,
                                  stats.frames.data() + t);
    double len = static_cast<double>(span.frames);
    double frame_ms =
        (span.tracker_ms + penalty_ms) / len + kPerFrameOverheadMs;
    stats.tracker_ms += span.tracker_ms;
    stats.scheduler_ms += kPerFrameOverheadMs * len;
    stats.gof_frame_ms.push_back(frame_ms);
    stats.gof_lengths.push_back(span.frames);
    faults.OnGofComplete(frame_ms, env.slo_ms, span.frames, coasted);
    t += span.frames;
  };
  while (t < video.frame_count()) {
    faults.BeginGof(t);
    if (faults.active()) {
      platform_local.set_contention_level(faults.ContentionAt(t));
      platform_local.set_thermal_scale(faults.ThermalAt(t));
    }
    std::vector<double> light = ComputeLightFeatures(spec.width, spec.height, *anchor);
    bool feasible = true;
    bool forecast_planned = false;
    // Same staged policy as LiteReconfig-Predictive: keep the reactive
    // fallback's conservatism, but price decisions at the forecast contention
    // while a burst is live and re-plan one GoF ahead of a forecast burst end.
    bool replan_early =
        predictive && faults.InFallback() && estimator.BurstEndingSoon();
    size_t choice;
    if (faults.InFallback() && !replan_early) {
      // Watchdog fallback: with slo=0 every branch is infeasible and Decide
      // returns its cheapest branch; re-plan once a clean GoF clears the fault.
      choice = Decide(light, gpu_cal, /*cpu_cal=*/1.0, /*slo_ms=*/0.0,
                      video.frame_count() - t, nullptr);
    } else if (predictive && estimator.in_burst()) {
      // Forecast pressure: price branches at the forecast contention so the
      // choice is the best that still fits if the burst persists.
      if (replan_early) {
        faults.RecordPreemptiveReplan();
      }
      choice = Decide(light, gpu_cal * estimator.ForecastScale(), /*cpu_cal=*/1.0,
                      env.slo_ms, video.frame_count() - t, &feasible);
      forecast_planned = true;
    } else {
      choice = Decide(light, gpu_cal, /*cpu_cal=*/1.0, env.slo_ms,
                      video.frame_count() - t, &feasible);
    }
    if (!feasible && current.has_value() &&
        video.frame_count() - t <= kTailFrames && t > 0) {
      // Tail continuation (see LiteReconfigProtocol): ride out the last frames
      // on the tracker instead of paying an unamortizable detector pass.
      track_only_gof(space.at(*current), video.frame_count() - t, 0.0,
                     /*coasted=*/false);
      continue;
    }
    const Branch& branch = space.at(choice);
    double det_mean = platform->DetectorMs(branch.detector) * kKernelSlowdown;
    FaultRuntime::DetectorOutcome outcome =
        faults.ResolveDetector(t, det_mean, t > 0);
    if (outcome.coast) {
      // Coast mode (see LiteReconfigProtocol): the detector is down, extend
      // tracking from the last emitted outputs.
      const Branch& coast_branch =
          current.has_value() ? space.at(*current) : branch;
      int length = std::min(coast_branch.has_tracker ? coast_branch.gof : branch.gof,
                            video.frame_count() - t);
      track_only_gof(coast_branch, std::max(length, 1), outcome.penalty_ms,
                     /*coasted=*/true);
      continue;
    }
    const Branch* switch_from = current.has_value() && *current != choice
                                    ? &space.at(*current)
                                    : nullptr;
    GofCost gof = exec.DetectGof(t, branch, branch.gof, switch_from, det_mean,
                                 outcome.outlier_scale, arena,
                                 stats.frames.data() + t);
    // Contention adaptation: calibrate against the zero-contention profile.
    // With degradation armed, outliers are discarded from calibration.
    double cal_sample = env.degrade ? gof.detector_nominal_ms : gof.detector_ms;
    double profiled = models_->latency.DetectorMs(choice) * kKernelSlowdown;
    if (predictive && profiled > 0.0) {
      // Burst tracking on the detector's residual inflation (see
      // LiteReconfigProtocol): branch-independent, survives fallback GoFs.
      estimator.Observe(profiled * gpu_cal, cal_sample);
    }
    if (profiled > 0.0) {
      gpu_cal = (1.0 - kCalibrationEwma) * gpu_cal +
                kCalibrationEwma * (cal_sample / profiled);
    }
    double len = static_cast<double>(gof.frames);
    stats.detector_ms += gof.detector_ms + outcome.penalty_ms;
    stats.tracker_ms += gof.tracker_ms;
    stats.scheduler_ms += kSchedulerMs + kPerFrameOverheadMs * len;
    stats.switch_ms += gof.switch_ms;
    double gof_frame = (gof.detector_ms + gof.tracker_ms + kSchedulerMs +
                        gof.switch_ms + outcome.penalty_ms) /
                           len +
                       kPerFrameOverheadMs;
    stats.gof_frame_ms.push_back(gof_frame);
    stats.gof_lengths.push_back(gof.frames);
    stats.branches_used.insert(branch.Id());
    faults.OnGofComplete(gof_frame, env.slo_ms, gof.frames,
                         /*coasted=*/false, forecast_planned);
    anchor = stats.frames.data() + t;
    t += gof.frames;
    current = choice;
  }
  stats.robustness = faults.TakeAccounting();
  return stats;
}

}  // namespace litereconfig
