#include "src/mbek/kernel.h"

#include <algorithm>

#include "src/vision/metrics.h"

namespace litereconfig {

namespace {

// CPU-only branches always run the YOLO-LITE-style profile — the caller's
// quality override describes a GPU family and does not apply to them.
DetectorQuality EffectiveQuality(const Branch& branch,
                                 const DetectorQuality& quality) {
  return branch.detector.cpu ? CpuDetectorQuality() : quality;
}

}  // namespace

DetectionList ExecutionKernel::DetectAnchor(const SyntheticVideo& video, int start,
                                            const Branch& branch,
                                            uint64_t run_salt,
                                            const DetectorQuality& quality) {
  if (start >= video.frame_count()) {
    return {};
  }
  return DetectorSim::Detect(video, start, branch.detector,
                             EffectiveQuality(branch, quality), run_salt);
}

int ExecutionKernel::TrackRemainderInto(const SyntheticVideo& video, int start,
                                        const Branch& branch,
                                        const DetectionList& anchor_detections,
                                        uint64_t run_salt, TrackBatch& scratch,
                                        DetectionList* out_frames,
                                        const DetectorQuality& quality) {
  int remaining = video.frame_count() - start;
  int length = std::min(branch.gof, remaining);
  if (length <= 1) {
    return 0;
  }
  if (branch.has_tracker) {
    // Only confident detections are handed to the tracker — the same policy the
    // latency accounting charges for.
    scratch.Reset(anchor_detections, kConfidentScoreThreshold);
    for (int t = start + 1; t < start + length; ++t) {
      TrackerSim::StepInto(video, t, branch.tracker, scratch, run_salt,
                           out_frames[t - start - 1]);
    }
  } else {
    // A detector-only branch with gof > 1 would re-detect each frame; in the
    // curated space detector-only branches have gof == 1, but handle it anyway.
    for (int t = start + 1; t < start + length; ++t) {
      out_frames[t - start - 1] = DetectorSim::Detect(
          video, t, branch.detector, EffectiveQuality(branch, quality), run_salt);
    }
  }
  return length - 1;
}

std::vector<DetectionList> ExecutionKernel::TrackRemainder(
    const SyntheticVideo& video, int start, const Branch& branch,
    const DetectionList& anchor_detections, uint64_t run_salt,
    const DetectorQuality& quality) {
  std::vector<DetectionList> frames;
  int remaining = video.frame_count() - start;
  int length = std::min(branch.gof, remaining);
  if (length <= 1) {
    return frames;
  }
  frames.resize(static_cast<size_t>(length - 1));
  TrackBatch scratch;
  TrackRemainderInto(video, start, branch, anchor_detections, run_salt, scratch,
                     frames.data(), quality);
  return frames;
}

int ExecutionKernel::TrackOnlyInto(const SyntheticVideo& video, int start,
                                   int length, const TrackerConfig& tracker,
                                   const DetectionList& init_detections,
                                   uint64_t run_salt, TrackBatch& scratch,
                                   DetectionList* out_frames) {
  int end = std::min(video.frame_count(), start + length);
  if (end <= start) {
    return 0;
  }
  scratch.Reset(init_detections, kConfidentScoreThreshold);
  for (int t = start; t < end; ++t) {
    TrackerSim::StepInto(video, t, tracker, scratch, run_salt,
                         out_frames[t - start]);
  }
  return end - start;
}

std::vector<DetectionList> ExecutionKernel::TrackOnly(
    const SyntheticVideo& video, int start, int length, const TrackerConfig& tracker,
    const DetectionList& init_detections, uint64_t run_salt) {
  std::vector<DetectionList> frames;
  int end = std::min(video.frame_count(), start + length);
  if (end <= start) {
    return frames;
  }
  frames.resize(static_cast<size_t>(end - start));
  TrackBatch scratch;
  TrackOnlyInto(video, start, length, tracker, init_detections, run_salt, scratch,
                frames.data());
  return frames;
}

double ExecutionKernel::SnippetAccuracy(const SyntheticVideo& video, int start,
                                        int length, const Branch& branch,
                                        uint64_t run_salt,
                                        const DetectorQuality& quality) {
  ApEvaluator eval;
  int end = std::min(video.frame_count(), start + length);
  // One track arena and one set of frame slots serve every GoF of the
  // snippet. Each GoF is cut at the snippet's end: the tracker is causal, so
  // the frames it keeps come out exactly as in the full-length GoF.
  TrackBatch scratch;
  std::vector<DetectionList> slots(
      static_cast<size_t>(std::max(0, std::min(branch.gof, end - start) - 1)));
  Branch gof_branch = branch;
  int t = start;
  while (t < end && branch.gof > 0) {
    gof_branch.gof = std::min(branch.gof, end - t);
    DetectionList anchor = DetectAnchor(video, t, gof_branch, run_salt, quality);
    int tracked = TrackRemainderInto(video, t, gof_branch, anchor, run_salt,
                                     scratch, slots.data(), quality);
    eval.AddFrame(video.frame(t).VisibleGroundTruth(), anchor);
    for (int i = 0; i < tracked; ++i) {
      eval.AddFrame(video.frame(t + 1 + i).VisibleGroundTruth(),
                    slots[static_cast<size_t>(i)]);
    }
    t += 1 + tracked;
  }
  return eval.MeanAveragePrecision();
}

}  // namespace litereconfig
