#include "src/pipeline/litereconfig_protocol.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/features/light.h"
#include "src/platform/gof_exec.h"
#include "src/sched/contention_estimator.h"
#include "src/sched/cost_table.h"
#include "src/sched/drift.h"
#include "src/sched/scheduler_session.h"
#include "src/util/rng.h"

namespace litereconfig {

namespace {

constexpr double kCalibrationEwma = 0.3;
// Predictive robustness: the drift monitor runs per video stream (tens of
// GoFs), so its window and bias threshold are sized well below the offline
// defaults — a thermal ramp must be caught before the stream ends.
constexpr size_t kDriftWindow = 6;
constexpr double kDriftBiasThreshold = 0.12;
// After a content-drift re-anchor, the accuracy blend trusts the heavy
// content-aware models more than the stale light-only baseline.
constexpr double kReanchoredHeavyBlend = 0.75;
// Clamp on the drift-driven CPU recalibration multiplier.
constexpr double kCpuCalFloor = 0.25;
constexpr double kCpuCalCeil = 4.0;

}  // namespace

LiteReconfigProtocol::LiteReconfigProtocol(const TrainedModels* models,
                                           SchedulerConfig config, std::string name)
    : models_(models), scheduler_(models, config), name_(std::move(name)) {
  assert(models_ != nullptr);
}

SchedulerConfig LiteReconfigProtocol::FullConfig() { return SchedulerConfig{}; }

SchedulerConfig LiteReconfigProtocol::MinCostConfig() {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kMinCost;
  return config;
}

SchedulerConfig LiteReconfigProtocol::MaxContentConfig(FeatureKind feature) {
  SchedulerConfig config;
  config.mode = feature == FeatureKind::kMobileNetV2
                    ? LiteReconfigMode::kMaxContentMobileNet
                    : LiteReconfigMode::kMaxContentResNet;
  return config;
}

SchedulerConfig LiteReconfigProtocol::ForcedFeatureConfig(FeatureKind feature) {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kForceFeature;
  config.forced_feature = feature;
  config.charge_feature_overhead = false;
  return config;
}

void LiteReconfigProtocol::TraceFaults(const FaultRuntime& faults,
                                       size_t first_index, uint64_t video_seed) {
  if (trace_ == nullptr) {
    return;
  }
  const std::vector<FailureReport>& failures = faults.accounting().failures;
  for (size_t i = first_index; i < failures.size(); ++i) {
    DecisionRecord record;
    record.event = "fault";
    record.video_seed = video_seed;
    record.frame = failures[i].frame;
    record.branch_id = std::string(FailureKindName(failures[i].kind));
    trace_->Write(record);
  }
}

VideoRunStats LiteReconfigProtocol::RunVideo(const SyntheticVideo& video,
                                             const RunEnv& env) {
  const BranchSpace& space = *models_->space;
  VideoRunStats stats;
  const PhaseClockFn now = env.now_us;
  const double run_t0 = now != nullptr ? now() : 0.0;
  // Every frame slot is preallocated so GoF outputs are written in place.
  // The invariant is that slots [0, t) hold the emitted frames.
  stats.frames.resize(static_cast<size_t>(video.frame_count()));
  // The batched scheduler: one session per stream reuses the cost-table
  // columns whose inputs did not change across consecutive GoFs. The serial
  // reference executor (env.pipeline == false) passes no session, so each
  // decision prices through a fresh one.
  SchedulerSession session;
  SchedulerSession* const session_ptr = env.pipeline ? &session : nullptr;
  Pcg32 rng(HashKeys({video.spec().seed, env.run_salt, 0x117e2ull}));
  // The last anchor's detections: the preheat probe's until the first GoF,
  // then the anchor's stats.frames slot (stable storage: the vector is
  // preallocated and never reallocates mid-run).
  DetectionList probe_anchor;
  const DetectionList* anchor_ref = &probe_anchor;
  std::optional<size_t> current;
  // Online latency calibration (observed/profiled EWMA). Local to the video:
  // each stream re-measures contention during its own preheat, which keeps
  // per-video runs independent (the parallel runner's determinism contract).
  double gpu_cal = 1.0;
  double cpu_cal = 1.0;
  bool charge_overhead = scheduler_.config().charge_feature_overhead;
  // Per-stream platform copy: fault-driven contention bursts mutate only this
  // stream's contention level, never the model shared across the fan-out.
  LatencyModel platform_local = *env.platform;
  const LatencyModel* platform = &platform_local;
  FaultRuntime faults(env.faults, video.spec().seed, video.frame_count(),
                      env.fault_seed, env.degrade,
                      env.platform->contention().level(),
                      1000.0 / video.spec().fps);
  // Predictive robustness (env.predictive): forecast the next GoF's residual
  // contention, stage degradation by headroom instead of the binary fallback,
  // and close the drift loop (recalibrate / re-anchor). Engaged only when
  // faults are injected with the degradation path armed, so the no-fault run
  // is numerically identical to the non-predictive one.
  bool predictive = env.predictive && env.degrade && faults.active();
  ContentionEstimator estimator;
  DriftConfig drift_config;
  drift_config.window = kDriftWindow;
  drift_config.latency_rel_threshold = kDriftBiasThreshold;
  DriftMonitor drift(drift_config);
  double heavy_blend = 0.5;
  // Measured CPU-side calibration (observed / profiled tracker time EWMA).
  // Only *applied* to cpu_cal when the drift monitor flags sustained latency
  // drift: the measurement is always roughly right (so a spurious trigger is
  // harmless), but folding it in continuously would perturb the no-drift
  // scheduling behaviour this runtime must preserve.
  double cpu_ratio = 1.0;
  LatencyModel profiled_platform(models_->device, 0.0);
  // Watchdog fallback target: the lowest-latency end of the Pareto frontier
  // (the same shared scan the scheduler's degradation target uses).
  size_t cheapest_branch = 0;
  // GPU-denied intervals: with a CPU-only family in the space, scheduled CPU
  // detection replaces tracker-only coasting. Denied GoFs never take the
  // watchdog fallback — the masked scheduler prices on the CPU clock, which
  // contention cannot skew — so no cheapest-CPU shortcut is kept. (A
  // post-miss cheapest-CPU stretch was tried and rejected: the long GoF at
  // the drift-floor accuracy factor costs several mAP points per schedule
  // while removing at most one miss.)
  const bool has_cpu_family =
      std::any_of(space.branches().begin(), space.branches().end(),
                  [](const Branch& b) { return b.detector.cpu; });
  if (faults.active()) {
    cheapest_branch = CheapestBranchIndex(space.size(), [&](size_t b) {
      return env.platform->BranchFrameMs(space.at(b), kFallbackObjectCount);
    });
  }
  // Family-demotion edge tracking for the "demote"/"restore" trace events.
  bool in_cpu_fallback = false;
  {
    // Preheat pass (paper footnote 6: "all branches and models are loaded and
    // preheated with several video frames in the beginning"): one cheap
    // detector invocation on the first frame, not charged to latency. It
    // (a) measures the current GPU contention and (b) seeds the object
    // statistics the light features and tracker-cost predictions start from.
    DetectorConfig probe{320, 10};
    probe_anchor = DetectorSim::Detect(video, 0, probe, DetectorQuality{},
                                       HashKeys({env.run_salt, 0x94e47ull}));
    double observed = env.platform->Sample(env.platform->DetectorMs(probe), rng);
    LatencyModel profiled(models_->device, 0.0);
    if (scheduler_.config().use_contention_calibration) {
      gpu_cal = observed / profiled.DetectorMs(probe);
    }
  }
  // The batched plan's SoA track arena, reused by every GoF of the stream:
  // steady-state GoFs allocate no track state at all.
  TrackBatch stream_arena;
  GofExecutor exec(video, env.run_salt, *platform, rng);
  exec.set_switching(env.switching, &stats.switch_count);
  exec.set_profile(now, &stats.phases.detect_us, &stats.phases.track_us);
  int t = 0;
  while (t < video.frame_count()) {
    // The reference executor (pipeline off) tracks each GoF in a fresh arena.
    TrackBatch gof_arena;
    TrackBatch& arena = env.pipeline ? stream_arena : gof_arena;
    size_t begin_mark = faults.accounting().failures.size();
    faults.BeginGof(t);
    if (faults.active()) {
      platform_local.set_contention_level(faults.ContentionAt(t));
      platform_local.set_thermal_scale(faults.ThermalAt(t));
    }
    size_t fault_mark = faults.accounting().failures.size();
    // BeginGof books interval-entry failures before fault_mark, so the main
    // TraceFaults pass never sees them. Denial entries are traced here (the
    // summary tool keys its denial report on them); burst/ramp entries keep
    // their pre-existing trace behaviour so non-denial traces stay
    // byte-identical.
    if (trace_ != nullptr) {
      const std::vector<FailureReport>& entry = faults.accounting().failures;
      for (size_t i = begin_mark; i < fault_mark; ++i) {
        if (entry[i].kind == FailureKind::kGpuDenied) {
          DecisionRecord record;
          record.event = "fault";
          record.video_seed = video.spec().seed;
          record.frame = entry[i].frame;
          record.branch_id = std::string(FailureKindName(entry[i].kind));
          trace_->Write(record);
        }
      }
    }
    // GPU-denied interval covering this GoF's anchor frame. With a CPU family
    // in the space the scheduler is re-run under the availability mask (GPU
    // branches price +inf) and the GoF is clipped to the interval end so the
    // runtime re-plans — and resumes GPU branches — the moment the GPU comes
    // back. Without a CPU family the only degradation left is coasting.
    bool denied = faults.active() && faults.GpuDeniedAt(t);
    // With a CPU family, a denied GoF ends at the interval boundary, so the
    // next decision lands exactly at the re-entry frame with the GPU back.
    int denial_left = std::numeric_limits<int>::max();
    if (denied && has_cpu_family) {
      denial_left = faults.DenialEndAt(t) - t;
    }
    SchedulerDecision decision;
    bool forecast_planned = false;
    bool replan_early = false;
    // Staged policy on top of the reactive fallback: the watchdog fallback
    // stays exactly as conservative as before (cheapest branch until clean),
    // but (a) while the estimator tracks a live burst and the runtime is NOT
    // yet in fallback, the decision is priced at the forecast contention and
    // prefers headroom — absorbing the burst before it ever causes the miss
    // that would arm the fallback; and (b) when the burst is forecast to end,
    // the scheduler re-plans one GoF early instead of waiting for a clean GoF,
    // still priced at the burst level as the safety margin.
    if (predictive) {
      replan_early = faults.InFallback() && estimator.BurstEndingSoon();
    }
    if (faults.InFallback() && !replan_early && !(denied && has_cpu_family)) {
      // Watchdog fallback: skip the full scheduler pass and run the cheapest
      // branch until a clean GoF clears the fault, then re-plan. The fallback
      // exists because GPU pricing is unreliable mid-burst; a denied GoF with
      // a CPU family does NOT take it — the masked scheduler prices on the
      // CPU clock, which contention cannot skew, and the full pass picks a
      // refresh cadence instead of stretching the cheapest (longest-GoF) CPU
      // branch across the window.
      decision.branch_index = cheapest_branch;
    } else {
      ScopedPhase decide_phase(now, &stats.phases.decide_us);
      DecisionContext ctx;
      ctx.video = &video;
      ctx.frame = t;
      ctx.anchor_detections = anchor_ref;
      ctx.current_branch = current;
      ctx.slo_ms = env.slo_ms;
      // A denied plan is priced over the frames the CPU branch will run.
      ctx.frames_remaining = std::min(video.frame_count() - t, denial_left);
      ctx.gpu_cal = gpu_cal;
      ctx.cpu_cal = cpu_cal;
      ctx.gpu_available = !(denied && has_cpu_family);
      if (predictive) {
        ctx.heavy_blend = heavy_blend;
        if (estimator.in_burst()) {
          ctx.gpu_cal = gpu_cal * estimator.ForecastScale();
          ctx.prefer_headroom = true;
          forecast_planned = true;
          if (replan_early) {
            faults.RecordPreemptiveReplan();
          }
        }
      }
      decision = scheduler_.Decide(ctx, session_ptr);
    }
    // A tracker-only GoF (tail continuation or coast) on `from`'s coast
    // tracker, from the last emitted frame (slot t-1) into slots [t, ...).
    auto track_only_gof = [&](const Branch& from, int length,
                              double penalty_ms, bool coasted) {
      GofCost span = exec.TrackOnly(t, length, GofExecutor::CoastTracker(from),
                                    stats.frames[t - 1], arena,
                                    stats.frames.data() + t);
      double frame_ms =
          (span.tracker_ms + penalty_ms) / static_cast<double>(span.frames);
      stats.tracker_ms += span.tracker_ms;
      stats.gof_frame_ms.push_back(frame_ms);
      stats.gof_lengths.push_back(span.frames);
      faults.OnGofComplete(frame_ms, env.slo_ms, span.frames, coasted);
      if (coasted && denied) {
        faults.RecordDeniedGof(/*cpu_fallback=*/false);
      }
      TraceFaults(faults, fault_mark, video.spec().seed);
      t += span.frames;
    };
    // Frames [0, t) are always emitted, so t > 0 means frames exist.
    bool have_frames = t > 0;
    if (decision.infeasible && current.has_value() &&
        video.frame_count() - t <= kTailFrames && have_frames) {
      // Tail continuation: no detector pass fits the remaining frames; keep
      // tracking to the end of the stream.
      track_only_gof(space.at(*current), video.frame_count() - t, 0.0,
                     /*coasted=*/false);
      continue;
    }
    const Branch& branch = space.at(decision.branch_index);

    // Resolve the GoF's detector invocation against the fault plan before
    // committing to a switch: a coasted GoF stays on the current branch.
    FaultRuntime::DetectorOutcome outcome = faults.ResolveDetector(
        t, platform->DetectorMs(branch.detector), have_frames);
    // A denial with no CPU family leaves nothing schedulable: coast exactly as
    // for a detector crash (the pre-CPU-family behaviour).
    if (denied && !has_cpu_family && have_frames) {
      outcome.coast = true;
    }
    // Denial-window tail: too few denied frames remain to amortize any CPU
    // anchor (the masked decision is infeasible), so paying the anchor would
    // be a guaranteed deadline miss. Coast to the interval boundary instead;
    // the next decision lands at re-entry with the GPU back.
    if (denied && has_cpu_family && decision.infeasible && have_frames) {
      outcome.coast = true;
    }
    if (outcome.coast) {
      // Coast mode: the detector is down (or the capture dropped); extend
      // tracking from the last emitted outputs and mark the frames degraded.
      const Branch& coast_branch =
          current.has_value() ? space.at(*current) : branch;
      // Coasting a denial tail stops at the interval boundary so the
      // re-entry decision runs with the GPU back.
      int length =
          std::min({coast_branch.has_tracker ? coast_branch.gof : branch.gof,
                    video.frame_count() - t, denial_left});
      track_only_gof(coast_branch, std::max(length, 1), outcome.penalty_ms,
                     /*coasted=*/true);
      continue;
    }

    // The detector GoF: a denied CPU-family GoF stops at the interval
    // boundary, and the anchor plus tracked frames land in their slots.
    const Branch* switch_from =
        current.has_value() && *current != decision.branch_index
            ? &space.at(*current)
            : nullptr;
    GofCost gof = exec.DetectGof(t, branch, denial_left, switch_from,
                                 platform->DetectorMs(branch.detector),
                                 outcome.outlier_scale, arena,
                                 stats.frames.data() + t);
    ++stats.phases.gofs;
    const DetectionList& anchor_dets = stats.frames[t];
    double switch_sample = gof.switch_ms;
    double det_nominal = gof.detector_nominal_ms;
    double det_sample = gof.detector_ms;
    // Online contention calibration against the zero-contention profile. With
    // the watchdog armed, a one-off outlier is discarded from calibration so a
    // single stall cannot poison the latency predictions.
    double cal_sample = env.degrade ? det_nominal : det_sample;
    double profiled = models_->latency.DetectorMs(decision.branch_index);
    double gpu_cal_at_decision = gpu_cal;
    // A CPU-family anchor observes the CPU clock: its observed/profiled ratio
    // says nothing about GPU contention, so it must not feed the GPU
    // calibration EWMA or the burst estimator (the default space has no CPU
    // branches, so the no-family path is unchanged).
    if (predictive && profiled > 0.0 && !branch.detector.cpu) {
      // Burst tracking on the detector's residual inflation: what this GoF's
      // detector cost vs. what the calibrated model expected. The signal is
      // branch-independent (a ratio), so it keeps working through fallback
      // GoFs running the cheapest branch.
      estimator.Observe(profiled * gpu_cal, cal_sample);
    }
    if (profiled > 0.0 && !branch.detector.cpu &&
        scheduler_.config().use_contention_calibration) {
      gpu_cal = (1.0 - kCalibrationEwma) * gpu_cal +
                kCalibrationEwma * (cal_sample / profiled);
    }
    double track_total = gof.tracker_ms;
    if (predictive && branch.has_tracker && gof.frames > 1) {
      double profiled_track =
          profiled_platform.TrackerMs(branch.tracker, CountConfident(anchor_dets)) *
          static_cast<double>(gof.frames - 1);
      if (profiled_track > 0.0) {
        cpu_ratio = (1.0 - kCalibrationEwma) * cpu_ratio +
                    kCalibrationEwma * (track_total / profiled_track);
      }
    }
    double len = static_cast<double>(gof.frames);
    stats.detector_ms += det_sample + outcome.penalty_ms;
    stats.tracker_ms += track_total;
    stats.scheduler_ms += decision.scheduler_cost_ms;
    stats.switch_ms += switch_sample;
    double gof_total = det_sample + track_total + switch_sample + outcome.penalty_ms;
    if (charge_overhead) {
      gof_total += decision.scheduler_cost_ms;
    }
    stats.gof_frame_ms.push_back(gof_total / len);
    stats.gof_lengths.push_back(static_cast<int>(len));
    stats.branches_used.insert(branch.Id());
    double observed_frame_ms = gof_total / len;
    faults.OnGofComplete(observed_frame_ms, env.slo_ms, static_cast<int>(len),
                         /*coasted=*/false, forecast_planned);
    if (denied) {
      faults.RecordDeniedGof(/*cpu_fallback=*/branch.detector.cpu);
    }
    // Family-demotion edges: one "demote" when a denial first pushes the
    // runtime onto the CPU family, one "restore" on the first GPU-backed GoF
    // after it.
    if (branch.detector.cpu != in_cpu_fallback) {
      in_cpu_fallback = branch.detector.cpu;
      if (trace_ != nullptr) {
        DecisionRecord edge;
        edge.event = in_cpu_fallback ? "demote" : "restore";
        edge.video_seed = video.spec().seed;
        edge.frame = t;
        edge.branch_id = branch.Id();
        trace_->Write(edge);
      }
    }
    if (trace_ != nullptr) {
      if (replan_early) {
        DecisionRecord replan;
        replan.event = "replan";
        replan.video_seed = video.spec().seed;
        replan.frame = t;
        replan.branch_id = branch.Id();
        trace_->Write(replan);
      }
      DecisionRecord record;
      record.video_seed = video.spec().seed;
      record.frame = t;
      record.branch_id = branch.Id();
      for (FeatureKind kind : decision.heavy_features) {
        record.features.emplace_back(FeatureName(kind));
      }
      record.predicted_accuracy = decision.predicted_accuracy;
      record.predicted_frame_ms = decision.predicted_frame_ms;
      record.scheduler_cost_ms = decision.scheduler_cost_ms;
      record.switch_cost_ms = switch_sample;
      record.actual_frame_ms = observed_frame_ms;
      record.gof_length = static_cast<int>(len);
      record.switched = switch_sample > 0.0;
      record.infeasible = decision.infeasible;
      record.missed = observed_frame_ms > env.slo_ms;
      record.gpu_cal = gpu_cal;
      trace_->Write(record);
    }
    TraceFaults(faults, fault_mark, video.spec().seed);
    if (predictive) {
      // Slow loop: the drift monitor compares the decision-time nominal
      // prediction (branch cost + the amortized scheduler/switch overheads it
      // cannot predict away) against the realized per-frame latency. The
      // scheduler already computed the light features this prediction needs
      // (SchedulerDecision carries them out); only the watchdog-fallback path,
      // which skips the scheduler, recomputes them here.
      std::vector<double> fallback_light;
      if (decision.light_features.empty()) {
        fallback_light = ComputeLightFeatures(video.spec().width,
                                              video.spec().height, *anchor_ref);
      }
      const std::vector<double>& light = decision.light_features.empty()
                                             ? fallback_light
                                             : decision.light_features;
      double reference_ms = models_->latency.PredictFrameMs(
          decision.branch_index, light, gpu_cal_at_decision, cpu_cal);
      reference_ms +=
          ((charge_overhead ? decision.scheduler_cost_ms : 0.0) + switch_sample) /
          len;
      drift.ObserveLatency(reference_ms, observed_frame_ms);
      drift.ObserveDetections(anchor_dets);
      DriftStatus status = drift.Check();
      if (status.latency_drift) {
        // Sustained bias that survived the GPU calibration loop: the residual
        // lives on the CPU side (thermal throttling slows the whole SoC, but
        // the contention EWMA only tracks the detector). Recalibrate cpu_cal
        // to the *measured* tracker ratio — not the inferred bias, so a
        // trigger caused by GPU outliers simply re-asserts the measurement —
        // and restart the drift window from the recalibrated regime.
        cpu_cal = std::clamp(cpu_ratio, kCpuCalFloor, kCpuCalCeil);
        drift.Rebaseline();
        faults.RecordRecalibration();
        if (trace_ != nullptr) {
          DecisionRecord event;
          event.event = "recalibrate";
          event.video_seed = video.spec().seed;
          event.frame = t;
          event.branch_id = "latency";
          trace_->Write(event);
        }
      } else if (status.content_drift) {
        // Content regime changed relative to the anchor window: trust the
        // content-aware accuracy models more than the stale light-only prior.
        heavy_blend = kReanchoredHeavyBlend;
        drift.Rebaseline();
        faults.RecordReanchor();
        if (trace_ != nullptr) {
          DecisionRecord event;
          event.event = "reanchor";
          event.video_seed = video.spec().seed;
          event.frame = t;
          event.branch_id = "content";
          trace_->Write(event);
        }
      }
    }
    anchor_ref = &anchor_dets;
    t += static_cast<int>(len);
    current = decision.branch_index;
  }
  const SchedulerSession::Counters& reuse = session.counters();
  stats.phases.decisions += reuse.decisions;
  stats.phases.decision_reuses += reuse.decision_reuses;
  stats.phases.table_reuses += reuse.table_reuses;
  stats.phases.table_builds += reuse.table_builds;
  stats.phases.switch_row_reuses += reuse.switch_row_reuses;
  stats.robustness = faults.TakeAccounting();
  if (now != nullptr) {
    stats.phases.run_us += now() - run_t0;
  }
  return stats;
}

}  // namespace litereconfig
