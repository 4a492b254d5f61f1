// Adaptive-SLO scenario: an AR application that tightens its latency objective
// mid-stream (e.g. the user starts interacting) and relaxes it again. This
// example drives the scheduler directly through the public API — no protocol
// wrapper — to show how the decision changes with the objective.
#include <algorithm>
#include <iostream>
#include <utility>

#include "src/mbek/kernel.h"
#include "src/pipeline/workbench.h"
#include "src/sched/scheduler.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

using namespace litereconfig;

int main(int argc, char** argv) {
  litereconfig::ApplyThreadsFlag(argc, argv);  // --threads=N
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  const TrainedModels& models = wb.models();
  const BranchSpace& space = *models.space;
  LiteReconfigScheduler scheduler(&models, SchedulerConfig{});

  VideoSpec spec;
  spec.seed = 77;
  spec.frame_count = 360;
  spec.archetype = SceneArchetype::kFastSmall;
  SyntheticVideo video = SyntheticVideo::Generate(spec);

  // Phase schedule: relaxed -> interactive (tight) -> relaxed.
  auto slo_at = [](int frame) {
    if (frame < 120) {
      return 100.0;
    }
    if (frame < 240) {
      return 33.3;
    }
    return 50.0;
  };

  std::cout << "frame  SLO(ms)  chosen branch               features   "
               "pred.lat(ms)\n";
  DetectionList anchor = FasterRcnnSim::Detect(video, 0, {320, 10});
  std::optional<size_t> current;
  int t = 0;
  while (t < video.frame_count()) {
    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = t;
    ctx.anchor_detections = &anchor;
    ctx.current_branch = current;
    ctx.slo_ms = slo_at(t);
    ctx.frames_remaining = video.frame_count() - t;
    SchedulerDecision decision = scheduler.Decide(ctx);
    const Branch& branch = space.at(decision.branch_index);
    std::vector<std::string> feature_names;
    for (FeatureKind kind : decision.heavy_features) {
      feature_names.push_back(std::string(FeatureName(kind)));
    }
    std::cout << StrFormat("%5d  %6.1f  %-27s %-10s %6.1f%s\n", t, ctx.slo_ms,
                           branch.Id().c_str(),
                           feature_names.empty() ? "-" : Join(feature_names, "+").c_str(),
                           decision.predicted_frame_ms,
                           current.has_value() && *current != decision.branch_index
                               ? "  << switch"
                               : "");
    // Only the anchor's detections feed the next decision; the demo does not
    // score the tracked frames, so it runs the detector alone.
    int length = std::min(branch.gof, video.frame_count() - t);
    if (length <= 0) {
      break;
    }
    DetectionList detections = ExecutionKernel::DetectAnchor(video, t, branch);
    anchor = std::move(detections);
    current = decision.branch_index;
    t += length;
  }
  std::cout << "\nNote how the tight phase forces cheaper branches (longer GoFs, "
               "lighter\ndetector settings) and changes which content features "
               "are worth their cost.\n";
  return 0;
}
