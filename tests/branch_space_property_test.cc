// Property sweeps across the ENTIRE curated branch space: every branch must
// satisfy the invariants the scheduler's models rely on (bounded accuracy,
// deterministic labels, positive finite latency, GoF-consistent execution).
#include <gtest/gtest.h>

#include <cmath>

#include "src/mbek/kernel.h"
#include "src/platform/latency.h"
#include "src/sched/latency_predictor.h"
#include "tests/gof_oracle.h"

namespace litereconfig {
namespace {

const SyntheticVideo& PropertyVideo() {
  static const SyntheticVideo* video = [] {
    VideoSpec spec;
    spec.seed = 4177;
    spec.frame_count = 70;
    spec.archetype = SceneArchetype::kCrowded;
    return new SyntheticVideo(SyntheticVideo::Generate(spec));
  }();
  return *video;
}

class BranchSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BranchSweep, SnippetAccuracyBoundedAndDeterministic) {
  const Branch& branch = BranchSpace::Default().at(GetParam());
  double acc = ExecutionKernel::SnippetAccuracy(PropertyVideo(), 0, 30, branch, 3);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_DOUBLE_EQ(
      acc, ExecutionKernel::SnippetAccuracy(PropertyVideo(), 0, 30, branch, 3));
}

TEST_P(BranchSweep, PlatformLatencyPositiveFiniteAndDeviceOrdered) {
  const Branch& branch = BranchSpace::Default().at(GetParam());
  LatencyModel tx2(DeviceType::kTx2, 0.0);
  LatencyModel xavier(DeviceType::kXavier, 0.0);
  for (int objects : {0, 3, 10}) {
    double tx2_ms = tx2.BranchFrameMs(branch, objects);
    EXPECT_GT(tx2_ms, 0.0);
    EXPECT_TRUE(std::isfinite(tx2_ms));
    EXPECT_LT(xavier.BranchFrameMs(branch, objects), tx2_ms);
  }
  // Contention can only slow a branch down.
  LatencyModel contended(DeviceType::kTx2, 0.5);
  EXPECT_GE(contended.BranchFrameMs(branch, 3), tx2.BranchFrameMs(branch, 3));
}

TEST_P(BranchSweep, GofExecutionEmitsExactlyGofFrames) {
  const Branch& branch = BranchSpace::Default().at(GetParam());
  GofResult gof = RunGof(PropertyVideo(), 0, branch, 5);
  int expected = std::min(branch.gof, PropertyVideo().frame_count());
  EXPECT_EQ(gof.frames.size(), static_cast<size_t>(expected));
  EXPECT_EQ(gof.frames.front().size(), gof.anchor_detections.size());
}

TEST_P(BranchSweep, LatencyPredictorTracksPlatformWithinTolerance) {
  static const LatencyPredictor* predictor = [] {
    LatencyModel platform(DeviceType::kTx2, 0.0);
    return new LatencyPredictor(
        LatencyPredictor::Profile(BranchSpace::Default(), platform));
  }();
  LatencyModel platform(DeviceType::kTx2, 0.0);
  const Branch& branch = BranchSpace::Default().at(GetParam());
  std::vector<double> light = {1.0, 1.0, 3.0 / 8.0, 0.2};
  double predicted = predictor->PredictFrameMs(GetParam(), light, 1.0, 1.0);
  double truth = platform.BranchFrameMs(branch, 3);
  EXPECT_NEAR(predicted, truth, 0.05 * truth + 0.3) << branch.Id();
}

// Every 5th branch keeps the ctest process count reasonable while covering all
// shapes, nprops, GoF sizes, and trackers (the space is a regular grid, so a
// stride of 5 visits every knob value many times).
INSTANTIATE_TEST_SUITE_P(
    BranchGrid, BranchSweep,
    ::testing::Range<size_t>(0, BranchSpace::Default().size(), 5),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return BranchSpace::Default().at(param_info.param).Id();
    });

}  // namespace
}  // namespace litereconfig
