#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "src/det/detector.h"
#include "src/track/tracker.h"
#include "src/util/stats.h"
#include "src/vision/metrics.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, SceneArchetype archetype, int frames = 60) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = archetype;
  return SyntheticVideo::Generate(spec);
}

// A frame guaranteed to have at least one object.
int FirstPopulatedFrame(const SyntheticVideo& video) {
  for (int t = 0; t < video.frame_count(); ++t) {
    if (!video.frame(t).objects.empty()) {
      return t;
    }
  }
  ADD_FAILURE() << "video has no objects";
  return 0;
}

TEST(DetectorTest, Deterministic) {
  SyntheticVideo video = MakeVideo(1, SceneArchetype::kCrowded);
  DetectorConfig config{448, 100};
  DetectionList a = DetectorSim::Detect(video, 5, config);
  DetectionList b = DetectorSim::Detect(video, 5, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].box.x, b[i].box.x);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].class_id, b[i].class_id);
  }
}

TEST(DetectorTest, RunSaltChangesOutcome) {
  SyntheticVideo video = MakeVideo(2, SceneArchetype::kCrowded);
  DetectorConfig config{448, 100};
  DetectionList a = DetectorSim::Detect(video, 5, config, {}, 1);
  DetectionList b = DetectorSim::Detect(video, 5, config, {}, 2);
  bool differs = a.size() != b.size();
  if (!differs && !a.empty()) {
    differs = a[0].box.x != b[0].box.x || a[0].score != b[0].score;
  }
  EXPECT_TRUE(differs);
}

TEST(DetectorTest, ProbabilityMonotoneInShapeForSlowObjects) {
  // For slow objects higher resolution strictly helps. (For fast objects the
  // motion-blur term can make coarser inputs competitive — the AdaScale
  // premise — so monotonicity only holds at low speed.)
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.vx = 0.0;
  obj.vy = 0.0;
  obj.gt.box.h = 40.0;  // small enough that the size factor is not saturated
  obj.gt.box.w = 40.0;
  double prev = 0.0;
  for (int shape : kDetectorShapes) {
    double p = DetectorSim::DetectionProbability(video, obj, {shape, 100}, {}, 0);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(DetectorTest, FastObjectsCanPreferCoarserShapes) {
  // The motion-blur/resolution interaction: crank speed high enough and the
  // finest shape is no longer the best single-object choice.
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.gt.box.h = 400.0;  // large: size factor saturates at any shape
  obj.gt.box.w = 400.0;
  obj.vx = 90.0;
  obj.vy = 0.0;
  double coarse = DetectorSim::DetectionProbability(video, obj, {224, 100}, {}, 0);
  double fine = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  EXPECT_GT(coarse, fine);
}

TEST(DetectorTest, ProbabilityMonotoneInNprop) {
  SyntheticVideo video = MakeVideo(4, SceneArchetype::kCrowded);
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  double prev = 0.0;
  for (int nprop : kDetectorNprops) {
    double p = DetectorSim::DetectionProbability(video, obj, {576, nprop}, {}, 2);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(DetectorTest, OcclusionReducesProbability) {
  SyntheticVideo video = MakeVideo(5, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.occlusion = 0.0;
  double clear_p = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  obj.occlusion = 0.8;
  double hidden_p = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  EXPECT_LT(hidden_p, clear_p);
}

TEST(DetectorTest, LowerRankLowersProbabilityAtSmallNprop) {
  SyntheticVideo video = MakeVideo(6, SceneArchetype::kCrowded);
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  double top = DetectorSim::DetectionProbability(video, obj, {576, 1}, {}, 0);
  double deep = DetectorSim::DetectionProbability(video, obj, {576, 1}, {}, 5);
  EXPECT_GT(top, deep);
}

TEST(DetectorTest, HigherQualityProfileDetectsBetter) {
  SyntheticVideo video = MakeVideo(7, SceneArchetype::kFastSmall);
  DetectorQuality strong;
  strong.size_midpoint = 10.0;
  strong.motion_half_speed = 150.0;
  DetectorQuality weak;
  weak.size_midpoint = 24.0;
  weak.motion_half_speed = 40.0;
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  EXPECT_GT(DetectorSim::DetectionProbability(video, obj, {448, 100}, strong, 0),
            DetectorSim::DetectionProbability(video, obj, {448, 100}, weak, 0));
}

TEST(DetectorTest, HigherResolutionGivesHigherMapOnSmallObjects) {
  // End-to-end over many frames: 576/100 must beat 224/1 on fast-small content.
  ApEvaluator high;
  ApEvaluator low;
  for (uint64_t seed = 10; seed < 16; ++seed) {
    SyntheticVideo video = MakeVideo(seed, SceneArchetype::kFastSmall);
    for (int t = 0; t < video.frame_count(); ++t) {
      high.AddFrame(video.frame(t).VisibleGroundTruth(),
                    DetectorSim::Detect(video, t, {576, 100}));
      low.AddFrame(video.frame(t).VisibleGroundTruth(),
                   DetectorSim::Detect(video, t, {224, 1}));
    }
  }
  EXPECT_GT(high.MeanAveragePrecision(), low.MeanAveragePrecision() + 0.1);
}

TEST(DetectorTest, DetectionsStayInFrame) {
  SyntheticVideo video = MakeVideo(8, SceneArchetype::kCrowded);
  for (int t = 0; t < video.frame_count(); t += 7) {
    for (const Detection& det : DetectorSim::Detect(video, t, {320, 100})) {
      EXPECT_GE(det.box.x, 0.0);
      EXPECT_GE(det.box.y, 0.0);
      EXPECT_LE(det.box.x + det.box.w, video.spec().width + 1e-9);
      EXPECT_LE(det.box.y + det.box.h, video.spec().height + 1e-9);
      EXPECT_GT(det.score, 0.0);
      EXPECT_LT(det.score, 1.0);
      EXPECT_GE(det.class_id, 0);
      EXPECT_LT(det.class_id, 30);
    }
  }
}

TEST(TrackerTest, TraitsOrdering) {
  // CSRT is the most robust and most expensive; MedianFlow the opposite.
  const TrackerTraits& mf = GetTrackerTraits(TrackerType::kMedianFlow);
  const TrackerTraits& csrt = GetTrackerTraits(TrackerType::kCsrt);
  EXPECT_GT(mf.drift, csrt.drift);
  EXPECT_GT(mf.loss_hazard, csrt.loss_hazard);
  EXPECT_LT(mf.cost_factor, csrt.cost_factor);
  EXPECT_LT(mf.occlusion_robustness, csrt.occlusion_robustness);
}

TEST(TrackerTest, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kNumTrackerTypes; ++i) {
    names.insert(TrackerName(static_cast<TrackerType>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTrackerTypes));
}

// Keeps every detection: Reset's confident filter is the execution kernel's
// policy, not part of the tracker model under test here.
constexpr double kKeepAll = -std::numeric_limits<double>::infinity();

TEST(TrackerTest, ResetMirrorsDetections) {
  DetectionList dets(3);
  dets[0].object_id = 11;
  dets[1].object_id = -1;
  dets[2].object_id = 13;
  dets[2].score = 0.7;
  TrackBatch tracks;
  tracks.Reset(dets, kKeepAll);
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks.object_id[0], 11);
  EXPECT_EQ(tracks.object_id[1], -1);
  EXPECT_DOUBLE_EQ(tracks.score[2], 0.7);
  EXPECT_EQ(tracks.lost[0], 0);
}

TEST(TrackerTest, EmitsOneOutputPerTrack) {
  SyntheticVideo video = MakeVideo(9, SceneArchetype::kSparse);
  DetectionList dets = DetectorSim::Detect(video, 0, {576, 100});
  TrackBatch tracks;
  tracks.Reset(dets, kKeepAll);
  TrackerConfig config{TrackerType::kKcf, 2};
  DetectionList out;
  TrackerSim::StepInto(video, 1, config, tracks, 0, out);
  EXPECT_EQ(out.size(), tracks.size());
}

// Ground-truth boxes of frame 0 as confident anchor detections.
DetectionList PerfectAnchor(const SyntheticVideo& video) {
  DetectionList anchor;
  for (const SceneObjectState& obj : video.frame(0).objects) {
    Detection det;
    det.box = obj.gt.box;
    det.class_id = obj.gt.class_id;
    det.score = 0.9;
    det.object_id = obj.gt.object_id;
    anchor.push_back(det);
  }
  return anchor;
}

// Error accumulation property: the tracked box drifts from ground truth over
// time, faster for cheap trackers on fast content.
double MeanTrackingIou(SceneArchetype archetype, TrackerType type, int ds,
                       int horizon) {
  RunningStat iou;
  for (uint64_t seed = 30; seed < 40; ++seed) {
    SyntheticVideo video = MakeVideo(seed, archetype, horizon + 2);
    TrackBatch tracks;
    tracks.Reset(PerfectAnchor(video), kKeepAll);
    TrackerConfig config{type, ds};
    DetectionList out;
    for (int t = 1; t <= horizon; ++t) {
      TrackerSim::StepInto(video, t, config, tracks, 0, out);
    }
    for (const Detection& det : out) {
      for (const SceneObjectState& obj : video.frame(horizon).objects) {
        if (obj.gt.object_id == det.object_id) {
          iou.Add(Iou(det.box, obj.gt.box));
        }
      }
    }
  }
  return iou.mean();
}

TEST(TrackerTest, DriftGrowsWithHorizon) {
  double short_iou =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow, 4, 3);
  double long_iou =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow, 4, 30);
  EXPECT_GT(short_iou, long_iou);
}

TEST(TrackerTest, CsrtTracksBetterThanMedianFlowOnFastContent) {
  double mf = MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow,
                              4, 20);
  double csrt =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kCsrt, 1, 20);
  EXPECT_GT(csrt, mf);
}

TEST(TrackerTest, SlowContentIsEasierToTrack) {
  double slow = MeanTrackingIou(SceneArchetype::kSlowLarge,
                                TrackerType::kMedianFlow, 4, 20);
  double fast = MeanTrackingIou(SceneArchetype::kFastSmall,
                                TrackerType::kMedianFlow, 4, 20);
  EXPECT_GT(slow, fast);
}

TEST(TrackerTest, LostTrackEmitsStaleBoxWithDecayingScore) {
  SyntheticVideo video = MakeVideo(10, SceneArchetype::kSparse);
  DetectionList dets(1);
  dets[0].object_id = 999999;  // no such object -> behaves like lost
  dets[0].class_id = 2;
  dets[0].score = 0.8;
  dets[0].box = Box{10, 10, 50, 50};
  TrackBatch tracks;
  tracks.Reset(dets, kKeepAll);
  TrackerConfig config{TrackerType::kKcf, 2};
  DetectionList out1;
  DetectionList out2;
  TrackerSim::StepInto(video, 1, config, tracks, 0, out1);
  TrackerSim::StepInto(video, 2, config, tracks, 0, out2);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_DOUBLE_EQ(out1[0].box.x, 10.0);
  EXPECT_LT(out2[0].score, out1[0].score);
  EXPECT_LT(out1[0].score, 0.8);
}

// Runs a batch reset from `anchor` over frames 1..horizon and returns every
// frame's outputs.
std::vector<DetectionList> TrackHorizon(const SyntheticVideo& video,
                                        const DetectionList& anchor,
                                        const TrackerConfig& config, int horizon) {
  TrackBatch tracks;
  tracks.Reset(anchor, kKeepAll);
  std::vector<DetectionList> frames(static_cast<size_t>(horizon));
  for (int t = 1; t <= horizon; ++t) {
    TrackerSim::StepInto(video, t, config, tracks, /*run_salt=*/7,
                         frames[static_cast<size_t>(t - 1)]);
  }
  return frames;
}

void ExpectSameDetection(const Detection& a, const Detection& b) {
  EXPECT_EQ(a.object_id, b.object_id);
  EXPECT_EQ(a.class_id, b.class_id);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.score), std::bit_cast<uint64_t>(b.score));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.box.x), std::bit_cast<uint64_t>(b.box.x));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.box.y), std::bit_cast<uint64_t>(b.box.y));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.box.w), std::bit_cast<uint64_t>(b.box.w));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.box.h), std::bit_cast<uint64_t>(b.box.h));
}

// Per-track substreams are keyed on object_id, not on batch position: a
// permuted batch yields the same outputs permuted the same way, and dropping
// one track leaves every other track's outputs bit-identical.
TEST(TrackerTest, SubstreamsAreKeyedNotPositional) {
  constexpr int kHorizon = 20;
  SyntheticVideo video = MakeVideo(31, SceneArchetype::kCrowded, kHorizon + 2);
  DetectionList anchor = PerfectAnchor(video);
  ASSERT_GE(anchor.size(), 3u);
  const TrackerConfig config{TrackerType::kMedianFlow, 4};
  std::vector<DetectionList> base = TrackHorizon(video, anchor, config, kHorizon);

  // Reversed order: output i of the permuted batch is output n-1-i of the base.
  DetectionList reversed(anchor.rbegin(), anchor.rend());
  std::vector<DetectionList> permuted = TrackHorizon(video, reversed, config, kHorizon);
  const size_t n = anchor.size();
  for (int t = 0; t < kHorizon; ++t) {
    ASSERT_EQ(permuted[t].size(), n);
    for (size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(testing::Message() << "permuted t=" << t + 1 << " i=" << i);
      ExpectSameDetection(permuted[t][i], base[t][n - 1 - i]);
    }
  }

  // Drop the middle detection: the others keep their outputs, in order.
  const size_t dropped = n / 2;
  DetectionList fewer = anchor;
  fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(dropped));
  std::vector<DetectionList> rest = TrackHorizon(video, fewer, config, kHorizon);
  for (int t = 0; t < kHorizon; ++t) {
    ASSERT_EQ(rest[t].size(), n - 1);
    for (size_t i = 0; i < n - 1; ++i) {
      SCOPED_TRACE(testing::Message() << "dropped t=" << t + 1 << " i=" << i);
      ExpectSameDetection(rest[t][i], base[t][i < dropped ? i : i + 1]);
    }
  }
}

}  // namespace
}  // namespace litereconfig
