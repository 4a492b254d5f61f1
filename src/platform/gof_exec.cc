#include "src/platform/gof_exec.h"

#include <algorithm>

#include "src/features/light.h"
#include "src/mbek/kernel.h"

namespace litereconfig {

TrackerConfig GofExecutor::CoastTracker(const Branch& branch) {
  return branch.has_tracker ? branch.tracker
                            : TrackerConfig{TrackerType::kMedianFlow, 4};
}

GofCost GofExecutor::TrackOnly(int start, int length,
                               const TrackerConfig& tracker,
                               const DetectionList& init, TrackBatch& arena,
                               DetectionList* out) const {
  GofCost cost;
  int tracked = CountConfident(init);
  {
    ScopedPhase track_phase(now_, track_us_);
    cost.frames = ExecutionKernel::TrackOnlyInto(video_, start, length, tracker,
                                                 init, run_salt_, arena, out);
  }
  for (int i = 0; i < cost.frames; ++i) {
    cost.tracker_ms +=
        platform_.Sample(platform_.TrackerMs(tracker, tracked), rng_);
  }
  return cost;
}

GofCost GofExecutor::DetectGof(int start, const Branch& branch, int max_frames,
                               const Branch* switch_from,
                               double detector_mean_ms, double outlier_scale,
                               TrackBatch& arena, DetectionList* out) const {
  GofCost cost;
  cost.frames = std::max(
      1, std::min({branch.gof, max_frames, video_.frame_count() - start}));
  // detlint: stream-stable(the caller passes switch_from exactly when its decision changes branch, a pure function of the stream's seeds and config)
  if (switch_from != nullptr) {
    cost.switch_ms =
        switching_->OnlineCostMs(*switch_from, branch, *switch_count_, rng_);
    ++*switch_count_;
  }
  {
    ScopedPhase detect_phase(now_, detect_us_);
    out[0] = ExecutionKernel::DetectAnchor(video_, start, branch, run_salt_,
                                           quality_);
  }
  cost.detector_nominal_ms = platform_.Sample(detector_mean_ms, rng_);
  cost.detector_ms = cost.detector_nominal_ms * outlier_scale;
  // detlint: stream-stable(has_tracker is a fixed property of the branch the caller's deterministic decision picked)
  if (branch.has_tracker) {
    // The latency model charges per tracked object and per frame; neither
    // depends on the simulated tracker outputs.
    int tracked = CountConfident(out[0]);
    for (int i = 1; i < cost.frames; ++i) {
      cost.tracker_ms +=
          platform_.Sample(platform_.TrackerMs(branch.tracker, tracked), rng_);
    }
  }
  // The tracker half stops where the GoF stops: a caller-clipped GoF ends at
  // max_frames, not at branch.gof (TrackRemainderInto spans the branch GoF).
  Branch span = branch;
  span.gof = cost.frames;
  {
    ScopedPhase track_phase(now_, track_us_);
    ExecutionKernel::TrackRemainderInto(video_, start, span, out[0], run_salt_,
                                        arena, out + 1, quality_);
  }
  return cost;
}

}  // namespace litereconfig
