// The GoF executor: the one place a runtime loop runs a branch over a group of
// frames (GoF) and prices it. Every loop (LiteReconfig, ApproxDet, SSD+/YOLO+
// and each serving session) keeps its own policy — what to run, how to route
// faults, where to book the cost — and hands the execution itself to one of
// two operations here:
//
//   * TrackOnly: a tracker-only span (tail continuation or coasting) from
//     the last emitted frame, one tracker-latency sample per frame;
//   * DetectGof: a detector GoF — the switch sample if the branch changes,
//     the anchor detection, the detector sample, then one tracker sample per
//     tracked frame.
//
// Both write the frames into caller-provided slots through a caller-owned
// TrackBatch arena, and draw from the caller's RNG in exactly that order. The
// kernel simulation itself draws from no caller stream, so the latency
// samples are independent of where the frames land.
#ifndef SRC_PLATFORM_GOF_EXEC_H_
#define SRC_PLATFORM_GOF_EXEC_H_

#include <cstdint>

#include "src/det/detector.h"
#include "src/mbek/branch.h"
#include "src/platform/latency.h"
#include "src/platform/switching.h"
#include "src/track/tracker.h"
#include "src/util/phase_clock.h"
#include "src/util/rng.h"
#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

// When no branch fits the tail of a stream (too few frames left to amortize
// another detector pass), the runtimes ride it out on the tracker instead.
constexpr int kTailFrames = 12;
// Object count assumed when a branch is priced without content: the watchdog
// fallback ranking and the serving feasibility checks.
constexpr int kFallbackObjectCount = 3;

// What one executor call ran and the simulated latency it drew.
struct GofCost {
  // Frames written into the caller's slots.
  int frames = 0;
  // Switching cost (0 unless the call switched branches).
  double switch_ms = 0.0;
  // Detector sample before and after the fault plan's outlier scale.
  double detector_nominal_ms = 0.0;
  double detector_ms = 0.0;
  // Summed per-frame tracker samples.
  double tracker_ms = 0.0;
};

class GofExecutor {
 public:
  // Binds one stream: its video and kernel salt, the platform that prices the
  // work, and the stream's latency RNG. The references must outlive the
  // executor.
  GofExecutor(const SyntheticVideo& video, uint64_t run_salt,
              const LatencyModel& platform, Pcg32& rng)
      : video_(video), run_salt_(run_salt), platform_(platform), rng_(rng) {}

  // The tracker a tracker-only span runs: the branch's own, or MedianFlow at
  // downsample 4 for a detector-only branch.
  static TrackerConfig CoastTracker(const Branch& branch);

  // Detector family of every anchor (default: the MBEK's Faster R-CNN).
  void set_quality(const DetectorQuality& quality) { quality_ = quality; }
  // Switches draw their cost from `switching` and count into *switch_count.
  void set_switching(const SwitchingCostModel* switching, int* switch_count) {
    switching_ = switching;
    switch_count_ = switch_count;
  }
  // Optional host-time profile: anchor detection books into *detect_us and
  // tracking into *track_us, read from `now` (null disables timing).
  void set_profile(PhaseClockFn now, double* detect_us, double* track_us) {
    now_ = now;
    detect_us_ = detect_us;
    track_us_ = track_us;
  }

  // Tracks frames [start, start + length) from `init` without a detector
  // pass, writing frame start+i into out[i]. Returns min(length, frames
  // left) frames. `init` must not alias the output slots.
  GofCost TrackOnly(int start, int length, const TrackerConfig& tracker,
                    const DetectionList& init, TrackBatch& arena,
                    DetectionList* out) const;

  // Runs `branch` over frames [start, start + n), n = min(branch.gof,
  // max_frames, frames left): the anchor lands in out[0], the tracked frames
  // in out[1..n). `switch_from` is the branch being left (null when the
  // branch does not change); `detector_mean_ms` is the mean the detector
  // sample draws around and `outlier_scale` the fault plan's multiplier.
  GofCost DetectGof(int start, const Branch& branch, int max_frames,
                    const Branch* switch_from, double detector_mean_ms,
                    double outlier_scale, TrackBatch& arena,
                    DetectionList* out) const;

 private:
  const SyntheticVideo& video_;
  uint64_t run_salt_;
  const LatencyModel& platform_;
  Pcg32& rng_;
  DetectorQuality quality_;
  const SwitchingCostModel* switching_ = nullptr;
  int* switch_count_ = nullptr;
  PhaseClockFn now_ = nullptr;
  double* detect_us_ = nullptr;
  double* track_us_ = nullptr;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_GOF_EXEC_H_
