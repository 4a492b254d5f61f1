// Contention-spike scenario: a co-located application grabs half the GPU for
// the middle third of a stream. Shows the online calibration loop detecting the
// slowdown from observed kernel latencies and the scheduler downshifting to
// keep the SLO, then upshifting when the contention clears — the adaptation the
// static SSD+/YOLO+ baselines lack (paper Table 2's "F" cells).
#include <algorithm>
#include <iostream>
#include <utility>

#include "src/mbek/kernel.h"
#include "src/pipeline/workbench.h"
#include "src/sched/scheduler.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

using namespace litereconfig;

int main(int argc, char** argv) {
  litereconfig::ApplyThreadsFlag(argc, argv);  // --threads=N
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  const TrainedModels& models = wb.models();
  const BranchSpace& space = *models.space;
  LiteReconfigScheduler scheduler(&models, SchedulerConfig{});
  constexpr double kSlo = 50.0;

  VideoSpec spec;
  spec.seed = 31337;
  spec.frame_count = 450;
  spec.archetype = SceneArchetype::kSparse;
  SyntheticVideo video = SyntheticVideo::Generate(spec);

  auto contention_at = [](int frame) { return frame >= 150 && frame < 300 ? 0.5 : 0.0; };

  LatencyModel profiled(DeviceType::kTx2, 0.0);
  Pcg32 rng(42);
  DetectionList anchor = FasterRcnnSim::Detect(video, 0, {320, 10});
  std::optional<size_t> current;
  double gpu_cal = 1.0;
  std::cout << "frame  contention  gpu_cal  chosen branch               "
               "actual(ms/frame)\n";
  int t = 0;
  while (t < video.frame_count()) {
    LatencyModel platform(DeviceType::kTx2, contention_at(t));
    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = t;
    ctx.anchor_detections = &anchor;
    ctx.current_branch = current;
    ctx.slo_ms = kSlo;
    ctx.frames_remaining = video.frame_count() - t;
    ctx.gpu_cal = gpu_cal;
    SchedulerDecision decision = scheduler.Decide(ctx);
    const Branch& branch = space.at(decision.branch_index);
    // Only the anchor's detections feed the next decision; the demo does not
    // score the tracked frames, so it runs the detector alone.
    int length = std::min(branch.gof, video.frame_count() - t);
    if (length <= 0) {
      break;
    }
    DetectionList detections = ExecutionKernel::DetectAnchor(video, t, branch);
    // Observe the actual detector latency under the *current* contention and
    // fold it into the calibration, exactly as the runtime does.
    double det_sample = platform.Sample(platform.DetectorMs(branch.detector), rng);
    gpu_cal = 0.7 * gpu_cal + 0.3 * (det_sample / profiled.DetectorMs(branch.detector));
    double track_ms = 0.0;
    if (branch.has_tracker) {
      for (int i = 1; i < length; ++i) {
        track_ms += platform.Sample(
            platform.TrackerMs(branch.tracker,
                               static_cast<int>(detections.size())),
            rng);
      }
    }
    double frame_ms = (det_sample + track_ms + decision.scheduler_cost_ms) /
                      static_cast<double>(length);
    std::cout << StrFormat("%5d  %9.0f%%  %7.2f  %-27s %8.1f%s\n", t,
                           contention_at(t) * 100, gpu_cal, branch.Id().c_str(),
                           frame_ms, frame_ms > kSlo ? "  !! over SLO" : "");
    anchor = std::move(detections);
    current = decision.branch_index;
    t += length;
  }
  std::cout << "\nThe calibration factor tracks the 1.74x contention inflation "
               "within a couple\nof GoFs; the scheduler trades accuracy for "
               "latency during the spike and\nrecovers afterwards.\n";
  return 0;
}
