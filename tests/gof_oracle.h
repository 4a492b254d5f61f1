// Test-only oracle: one whole GoF through the allocating kernel forms. The
// executors under src/ write into caller-owned arenas (TrackRemainderInto,
// GofExecutor::DetectGof); this composition of DetectAnchor and
// TrackRemainder is what the tests compare them against.
#ifndef TESTS_GOF_ORACLE_H_
#define TESTS_GOF_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mbek/kernel.h"

namespace litereconfig {

struct GofResult {
  // Per-frame outputs for frames [start, start + frames.size()).
  std::vector<DetectionList> frames;
  // The detector's output on the anchor (first) frame.
  DetectionList anchor_detections;
};

// Runs `branch` starting at frame `start`, for min(branch.gof, frames left)
// frames: the detector on the anchor, the tracker (if any) on the rest.
inline GofResult RunGof(const SyntheticVideo& video, int start, const Branch& branch,
                        uint64_t run_salt = 0, const DetectorQuality& quality = {}) {
  GofResult result;
  int length = std::min(branch.gof, video.frame_count() - start);
  if (length <= 0) {
    return result;
  }
  result.anchor_detections =
      ExecutionKernel::DetectAnchor(video, start, branch, run_salt, quality);
  result.frames.reserve(static_cast<size_t>(length));
  result.frames.push_back(result.anchor_detections);
  for (DetectionList& dets : ExecutionKernel::TrackRemainder(
           video, start, branch, result.anchor_detections, run_salt, quality)) {
    result.frames.push_back(std::move(dets));
  }
  return result;
}

}  // namespace litereconfig

#endif  // TESTS_GOF_ORACLE_H_
