#include "src/serve/stream_session.h"

#include <algorithm>
#include <limits>

#include "src/det/detector.h"
#include "src/features/light.h"
#include "src/sched/cost_table.h"

namespace litereconfig {

namespace {

// Builds the session's fault runtime: only the spec's stateless point faults
// are materialized here (device-wide intervals live in the service's shared
// ServiceFaultPlan); the runtime is engaged anyway so interval faults the
// service records on its behalf reach the same absorption/recovery books.
FaultRuntime MakeSessionFaults(const ServiceFaultConfig* faults,
                               const StreamRequest& request, int frame_count,
                               double frame_interval_ms) {
  if (faults == nullptr || !faults->spec.Any()) {
    return FaultRuntime(nullptr, request.video.seed, frame_count,
                        /*fault_seed=*/1, /*degrade=*/true,
                        /*base_contention=*/0.0, frame_interval_ms);
  }
  FaultSpec point = faults->spec.WithoutIntervals();
  FaultRuntime runtime(&point, request.video.seed, frame_count,
                       faults->fault_seed, faults->degrade,
                       /*base_contention=*/0.0, frame_interval_ms);
  runtime.EngageServiceFaults();
  return runtime;
}

}  // namespace

StreamSession::StreamSession(const TrainedModels* models,
                             SchedulerConfig config,
                             const StreamRequest& request,
                             const SwitchingCostModel* switching,
                             uint64_t service_salt,
                             const ServiceFaultConfig* faults)
    : models_(models),
      scheduler_(models, config),
      request_(request),
      video_(SyntheticVideo::Generate(request.video)),
      switching_(switching),
      platform_(models->device, 0.0),
      rng_(HashKeys({request.video.seed, service_salt, 0x5e55ull})),
      faults_(MakeSessionFaults(faults, request, video_.frame_count(),
                                1000.0 / request.video.fps)),
      effective_class_(request.slo_class) {
  // Serving mode from the start: the co-located streams are the contention;
  // any simulated contention write from here on is dropped, not stacked.
  platform_.SetEndogenousContention(0.0);
  for (const Branch& branch : models_->space->branches()) {
    if (branch.detector.cpu) {
      has_cpu_family_ = true;
      break;
    }
  }
}

double StreamSession::SloLimit() const {
  return request_.slo_ms * scheduler_.config().slo_margin;
}

double StreamSession::AnalyticGpuCal(double level) {
  return ContentionGenerator(level).GpuInflation();
}

bool StreamSession::FeasibleAt(double level) const {
  const BranchSpace& space = *models_->space;
  LatencyModel probe(models_->device, level);
  double limit = SloLimit();
  for (size_t b = 0; b < space.size(); ++b) {
    if (probe.BranchFrameMs(space.at(b), kFallbackObjectCount) <= limit) {
      return true;
    }
  }
  return false;
}

std::vector<BranchOption> StreamSession::Menu(double level,
                                              double thermal_scale,
                                              bool gpu_available) {
  DecisionContext ctx;
  ctx.video = &video_;
  ctx.frame = t_;
  ctx.anchor_detections = &anchor_;
  ctx.current_branch = current_;
  ctx.slo_ms = request_.slo_ms;
  ctx.frames_remaining = video_.frame_count() - t_;
  // Thermal drift slows the whole SoC, so it inflates both calibrations.
  ctx.gpu_cal = AnalyticGpuCal(level) * thermal_scale;
  ctx.cpu_cal = thermal_scale;
  ctx.gpu_available = gpu_available;
  std::vector<double> light = ComputeLightFeatures(
      video_.spec().width, video_.spec().height, anchor_);
  return BuildBranchMenu(*models_, scheduler_.config(), ctx, light, &session_);
}

double StreamSession::CheapestFrameMs(double level, double thermal_scale,
                                      bool gpu_available) const {
  const BranchSpace& space = *models_->space;
  LatencyModel probe(models_->device, level);
  probe.set_thermal_scale(thermal_scale);
  double best = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < space.size(); ++b) {
    if (!gpu_available && !space.at(b).detector.cpu) {
      continue;
    }
    best = std::min(best,
                    probe.BranchFrameMs(space.at(b), kFallbackObjectCount));
  }
  return best;
}

double StreamSession::CoastFrameMs(double thermal_scale) const {
  // Before the first GoF there is no branch: price a detector-only one's.
  TrackerConfig tracker = GofExecutor::CoastTracker(
      current_.has_value() ? models_->space->at(*current_) : Branch{});
  LatencyModel probe(models_->device, 0.0);
  probe.set_thermal_scale(thermal_scale);
  return probe.TrackerMs(tracker, std::max(CountConfident(last_frame_), 1));
}

void StreamSession::Renegotiate(SloClass demoted) {
  if (demoted == effective_class_) {
    return;
  }
  effective_class_ = demoted;
  ++renegotiations_;
}

void StreamSession::RestoreClass() { effective_class_ = request_.slo_class; }

void StreamSession::RecordEviction() {
  faults_.RecordServiceFault(FailureKind::kEvicted, t_, /*recovered=*/false);
}

DetectionList* StreamSession::Slots(int count) {
  if (frames_.size() < static_cast<size_t>(count)) {
    frames_.resize(static_cast<size_t>(count));
  }
  return frames_.data();
}

void StreamSession::EmitFrames(int count) {
  last_frame_ = frames_[static_cast<size_t>(count - 1)];
  for (int i = 0; i < count; ++i) {
    eval_.AddFrame(video_.frame(t_).VisibleGroundTruth(),
                   frames_[static_cast<size_t>(i)]);
    ++t_;
  }
}

void StreamSession::TrackOnlyGof(const GofExecutor& exec, int length,
                                 double penalty_ms, GofReport& report) {
  TrackerConfig tracker =
      GofExecutor::CoastTracker(models_->space->at(*current_));
  GofCost cost = exec.TrackOnly(t_, length, tracker, last_frame_, arena_,
                                Slots(length));
  double len = static_cast<double>(cost.frames);
  report.branch = *current_;
  report.gof_length = cost.frames;
  report.frame_ms = (cost.tracker_ms + penalty_ms) / len;
  report.gpu_share = 0.0;  // no detector invocation: the GPU is free
  report.missed = report.frame_ms > request_.slo_ms;
  anchor_ = frames_[static_cast<size_t>(cost.frames - 1)];
  EmitFrames(cost.frames);
}

void StreamSession::FinishGof(GofReport& report, size_t fault_mark,
                              bool coasted) {
  report.coasted = coasted;
  gof_frame_ms_.push_back(report.frame_ms);
  if (report.missed) {
    ++deadline_misses_;
    ++miss_streak_;
    int tolerance = SloClassMissTolerance(effective_class_);
    if (!forced_ && miss_streak_ >= tolerance) {
      forced_ = true;
    }
  } else {
    miss_streak_ = 0;
    forced_ = false;
  }
  // The watchdog's forced-fallback entry/exit rides the same recovery-episode
  // accounting the single-tenant FaultRuntime keeps: a missed GoF opens an
  // episode, a clean one closes it, so serve and single-stream robustness
  // metrics are comparable.
  faults_.OnGofComplete(report.frame_ms, request_.slo_ms,
                        std::max(report.gof_length, 1), coasted);
  const std::vector<FailureReport>& failures = faults_.accounting().failures;
  for (size_t i = fault_mark; i < failures.size(); ++i) {
    report.faults.push_back(failures[i]);
  }
  report.done = done();
  if (report.done) {
    report.gpu_share = 0.0;
  }
}

GofReport StreamSession::StepGof(const StepConditions& conditions) {
  GofReport report;
  if (done()) {
    report.done = true;
    return report;
  }
  platform_.SetEndogenousContention(conditions.level);
  platform_.set_thermal_scale(conditions.thermal_scale);
  double gpu_cal = AnalyticGpuCal(conditions.level) * conditions.thermal_scale;
  const BranchSpace& space = *models_->space;

  size_t fault_mark = faults_.accounting().failures.size();
  faults_.BeginGof(t_);
  // Device-wide intervals are shared state; the service passes the covering
  // interval indices in, and the session books them like its own.
  faults_.NoteServiceBurst(conditions.burst_index, t_);
  faults_.NoteServiceRamp(conditions.ramp_index, t_);
  faults_.NoteServiceDenial(conditions.denial_index, t_);
  // The GPU can be unavailable to this session for two reasons: a device-wide
  // denial interval (denial_index >= 0, booked into the denial accounting) or
  // a pressure-ladder demotion onto the CPU family (not a fault — only the
  // demote/restore events record it).
  const bool denied = !conditions.gpu_available;
  const bool device_denied = conditions.denial_index >= 0;

  if (!preheated_) {
    // Preheat probe (paper footnote 6): one cheap detector invocation on the
    // first frame, not charged to latency, seeding the object statistics the
    // light features start from. Calibration needs no measurement here — in
    // serving mode the contention level is known exactly from the ledger.
    DetectorConfig probe{320, 10};
    anchor_ = DetectorSim::Detect(video_, 0, probe, DetectorQuality{},
                                  HashKeys({request_.video.seed, 0x94e47ull}));
    preheated_ = true;
  }

  GofExecutor exec(video_, request_.video.seed, platform_, rng_);
  exec.set_switching(switching_, &switch_count_);
  report.frame = t_;
  // A coasted round: tracker-only for one GoF of the current branch.
  auto coast_round = [&](double penalty_ms) {
    int length = std::min(std::max(space.at(*current_).gof, 1),
                          video_.frame_count() - t_);
    TrackOnlyGof(exec, length, penalty_ms, report);
    FinishGof(report, fault_mark, /*coasted=*/true);
    if (device_denied) {
      faults_.RecordDeniedGof(/*cpu_fallback=*/false);
    }
  };
  // Rounds with no scheduler pass: the pressure ladder shed this stream's
  // detector load, or a device-wide denial with no CPU family in the space
  // left nothing schedulable (the pre-CPU-family behaviour).
  if ((conditions.coast || (denied && !has_cpu_family_)) && CanCoast()) {
    if (conditions.coast) {
      ++coasted_rounds_;
    }
    coast_round(0.0);
    return report;
  }
  // Mask GPU branches only when the demotion target exists; a stream with no
  // prior outputs (nothing to coast from) runs its first GoF regardless.
  const bool mask_gpu = denied && has_cpu_family_;

  SchedulerDecision decision;
  if (forced_) {
    // Per-class watchdog fallback: ride the cheapest branch (priced at this
    // round's level) until a clean GoF clears the streak. During a denial the
    // cheapest available branch is the cheapest CPU branch.
    decision.branch_index = CheapestBranchIndex(space.size(), [&](size_t b) {
      if (mask_gpu && !space.at(b).detector.cpu) {
        return std::numeric_limits<double>::infinity();
      }
      return platform_.BranchFrameMs(space.at(b), kFallbackObjectCount);
    });
    report.forced = true;
    ++forced_gofs_;
  } else {
    DecisionContext ctx;
    ctx.video = &video_;
    ctx.frame = t_;
    ctx.anchor_detections = &anchor_;
    ctx.current_branch = current_;
    ctx.slo_ms = request_.slo_ms;
    ctx.frames_remaining = video_.frame_count() - t_;
    ctx.gpu_cal = gpu_cal;
    ctx.cpu_cal = conditions.thermal_scale;
    ctx.budget_ms = conditions.budget_ms;
    ctx.gpu_available = !mask_gpu;
    decision = scheduler_.Decide(ctx, &session_);
  }
  report.infeasible = decision.infeasible;
  if (decision.infeasible) {
    ++infeasible_gofs_;
  }

  if (decision.infeasible && current_.has_value() &&
      video_.frame_count() - t_ <= kTailFrames && t_ > 0) {
    // Tail continuation: too few frames remain to amortize another detector
    // pass; coast on the tracker from the last emitted frame.
    report.tail = true;
    TrackOnlyGof(exec, video_.frame_count() - t_, 0.0, report);
  } else {
    const Branch& branch = space.at(decision.branch_index);
    // Resolve the GoF's detector invocation against the fault plan before
    // committing to a switch: a coasted GoF stays on the current branch.
    double detector_mean_ms = platform_.DetectorMs(branch.detector);
    FaultRuntime::DetectorOutcome outcome =
        faults_.ResolveDetector(t_, detector_mean_ms, CanCoast());
    if (outcome.coast) {
      // Coast mode: the detector is down (or the capture dropped); extend
      // tracking from the last emitted outputs and mark the frames degraded.
      coast_round(outcome.penalty_ms);
      return report;
    }
    const Branch* switch_from =
        current_.has_value() && *current_ != decision.branch_index
            ? &space.at(*current_)
            : nullptr;
    int length = std::max(std::min(branch.gof, video_.frame_count() - t_), 1);
    GofCost gof = exec.DetectGof(t_, branch, length, switch_from,
                                 detector_mean_ms, outcome.outlier_scale,
                                 arena_, Slots(length));
    double len = static_cast<double>(gof.frames);
    double gof_total =
        gof.detector_ms + gof.tracker_ms + gof.switch_ms + outcome.penalty_ms;
    if (scheduler_.config().charge_feature_overhead) {
      gof_total += decision.scheduler_cost_ms;
    }
    report.branch = decision.branch_index;
    report.cpu_fallback = branch.detector.cpu;
    report.switched = switch_from != nullptr;
    report.gof_length = gof.frames;
    report.frame_ms = gof_total / len;
    report.scheduler_ms = decision.scheduler_cost_ms;
    report.switch_ms = gof.switch_ms;
    report.predicted_accuracy = decision.predicted_accuracy;
    report.predicted_frame_ms = decision.predicted_frame_ms;
    report.missed = report.frame_ms > request_.slo_ms;
    // Posted occupancy: the profiled (zero-contention) detector time per
    // capture interval. Inflated time is waiting, not occupancy, so the share
    // uses the uncalibrated profile. A CPU-family detector leaves the GPU
    // untouched — it posts no occupancy at all.
    report.gpu_share =
        branch.detector.cpu
            ? 0.0
            : std::clamp(models_->latency.DetectorMs(decision.branch_index) /
                             (len * FrameIntervalMs()),
                         0.0, 1.0);
    anchor_ = frames_[0];
    EmitFrames(gof.frames);
    current_ = decision.branch_index;
  }

  FinishGof(report, fault_mark, /*coasted=*/false);
  if (device_denied) {
    faults_.RecordDeniedGof(report.cpu_fallback);
  }
  return report;
}

}  // namespace litereconfig
