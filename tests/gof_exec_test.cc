// The GoF executor's contract: its frames equal the kernel's reference
// wrappers, it draws from the caller's RNG in the fixed order (switch sample
// only on a branch change, then the detector sample, then one tracker sample
// per tracked frame), and it clips a GoF at the caller's cap. Suite names
// carry GofExec so the TSan CI job picks them up.
#include <gtest/gtest.h>

#include <vector>

#include "src/features/light.h"
#include "src/mbek/branch.h"
#include "src/mbek/kernel.h"
#include "src/platform/gof_exec.h"
#include "src/platform/latency.h"
#include "src/platform/switching.h"
#include "src/util/rng.h"
#include "tests/gof_oracle.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, int frames = 60) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = SceneArchetype::kCrowded;
  return SyntheticVideo::Generate(spec);
}

Branch TrackedBranch(int gof) {
  Branch branch;
  branch.detector = {448, 100};
  branch.gof = gof;
  branch.has_tracker = true;
  branch.tracker = {TrackerType::kKcf, 2};
  return branch;
}

void ExpectSameFrames(const std::vector<DetectionList>& got,
                      const std::vector<DetectionList>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t f = 0; f < want.size(); ++f) {
    ASSERT_EQ(got[f].size(), want[f].size()) << "frame " << f;
    for (size_t d = 0; d < want[f].size(); ++d) {
      EXPECT_EQ(got[f][d].box.x, want[f][d].box.x) << "frame " << f;
      EXPECT_EQ(got[f][d].box.y, want[f][d].box.y) << "frame " << f;
      EXPECT_EQ(got[f][d].box.w, want[f][d].box.w) << "frame " << f;
      EXPECT_EQ(got[f][d].box.h, want[f][d].box.h) << "frame " << f;
      EXPECT_EQ(got[f][d].score, want[f][d].score) << "frame " << f;
      EXPECT_EQ(got[f][d].class_id, want[f][d].class_id) << "frame " << f;
    }
  }
}

TEST(GofExecTest, CoastTrackerFallsBackToMedianFlow) {
  Branch det_only;
  TrackerConfig coast = GofExecutor::CoastTracker(det_only);
  EXPECT_EQ(coast.type, TrackerType::kMedianFlow);
  EXPECT_EQ(coast.downsample, 4);
  EXPECT_EQ(GofExecutor::CoastTracker(TrackedBranch(8)).type, TrackerType::kKcf);
}

TEST(GofExecTest, TrackOnlyMatchesKernelAndDrawsOneSamplePerFrame) {
  SyntheticVideo video = MakeVideo(3);
  LatencyModel platform(DeviceType::kTx2, 0.3);
  TrackerConfig tracker{TrackerType::kMedianFlow, 4};
  DetectionList init =
      ExecutionKernel::DetectAnchor(video, 40, TrackedBranch(8), 5);
  // The span runs past the end of the video: it stops at the last frame.
  std::vector<DetectionList> want =
      ExecutionKernel::TrackOnly(video, 41, 30, tracker, init, 5);
  ASSERT_EQ(want.size(), 19u);

  Pcg32 rng(11);
  GofExecutor exec(video, 5, platform, rng);
  TrackBatch arena;
  std::vector<DetectionList> got(30);
  GofCost cost = exec.TrackOnly(41, 30, tracker, init, arena, got.data());
  ASSERT_EQ(cost.frames, 19);
  got.resize(19);
  ExpectSameFrames(got, want);

  Pcg32 ref(11);
  double frame_ms = platform.TrackerMs(tracker, CountConfident(init));
  double want_ms = 0.0;
  for (int i = 0; i < 19; ++i) {
    want_ms += platform.Sample(frame_ms, ref);
  }
  EXPECT_EQ(cost.tracker_ms, want_ms);
  EXPECT_EQ(cost.detector_ms, 0.0);
  EXPECT_EQ(cost.switch_ms, 0.0);
  EXPECT_EQ(rng.NextU32(), ref.NextU32()) << "draw count differs";
}

TEST(GofExecTest, DetectGofMatchesRunGofAndDrawsInFixedOrder) {
  SyntheticVideo video = MakeVideo(4);
  LatencyModel platform(DeviceType::kTx2, 0.5);
  SwitchingCostModel switching(DeviceType::kTx2);
  Branch from = TrackedBranch(4);
  Branch branch = TrackedBranch(8);
  branch.detector = {576, 10};
  GofResult want = RunGof(video, 10, branch, 9);

  for (bool switched : {false, true}) {
    Pcg32 rng(21);
    int switches = 2;
    GofExecutor exec(video, 9, platform, rng);
    exec.set_switching(&switching, &switches);
    TrackBatch arena;
    std::vector<DetectionList> got(8);
    GofCost cost = exec.DetectGof(10, branch, 100, switched ? &from : nullptr,
                                  platform.DetectorMs(branch.detector), 2.5,
                                  arena, got.data());
    ASSERT_EQ(cost.frames, 8);
    ExpectSameFrames(got, want.frames);

    // The reference draw order: switch, detector, then the tracker frames.
    Pcg32 ref(21);
    double switch_ms =
        switched ? switching.OnlineCostMs(from, branch, 2, ref) : 0.0;
    double det_ms = platform.Sample(platform.DetectorMs(branch.detector), ref);
    double track_ms = 0.0;
    int tracked = CountConfident(want.anchor_detections);
    for (int i = 1; i < 8; ++i) {
      track_ms += platform.Sample(platform.TrackerMs(branch.tracker, tracked), ref);
    }
    EXPECT_EQ(cost.switch_ms, switch_ms);
    EXPECT_EQ(cost.detector_nominal_ms, det_ms);
    EXPECT_EQ(cost.detector_ms, det_ms * 2.5);
    EXPECT_EQ(cost.tracker_ms, track_ms);
    EXPECT_EQ(switches, switched ? 3 : 2);
    EXPECT_EQ(rng.NextU32(), ref.NextU32()) << "draw count differs";
  }
}

TEST(GofExecTest, DetectGofStopsAtTheCallerCap) {
  SyntheticVideo video = MakeVideo(5);
  LatencyModel platform(DeviceType::kTx2, 0.0);
  Branch branch = TrackedBranch(16);
  Pcg32 rng(1);
  GofExecutor exec(video, 3, platform, rng);
  TrackBatch arena;
  std::vector<DetectionList> got(16);
  GofCost cost = exec.DetectGof(20, branch, 5, nullptr,
                                platform.DetectorMs(branch.detector), 1.0,
                                arena, got.data());
  ASSERT_EQ(cost.frames, 5);
  Branch clipped = branch;
  clipped.gof = 5;
  got.resize(5);
  ExpectSameFrames(got, RunGof(video, 20, clipped, 3).frames);
}

}  // namespace
}  // namespace litereconfig
