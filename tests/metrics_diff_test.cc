// Differential property test for ApEvaluator. The oracle below is a copy of
// the original map-based evaluator (per-class std::map of ground-truth boxes by
// frame, a per-call std::map of claimed flags); the production evaluator keeps
// flat storage and must agree with it bit for bit on every seeded frame
// sequence: AveragePrecision per class, MeanAveragePrecision,
// GroundTruthClasses and frame_count, sequentially and after Merge at random
// split points. The generator covers frames without ground truth, classes
// with detections but no ground truth, duplicate detections, tied scores and
// IoUs exactly on the match threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "src/util/rng.h"
#include "src/vision/metrics.h"

namespace litereconfig {
namespace {

// The original map-based ApEvaluator algorithm, the bit-exactness oracle.
class OracleEvaluator {
 public:
  explicit OracleEvaluator(double iou_threshold = 0.5)
      : iou_threshold_(iou_threshold) {}

  void AddFrame(const GroundTruthList& ground_truth,
                const DetectionList& detections) {
    size_t frame = frame_count_++;
    for (const GroundTruthBox& gt : ground_truth) {
      ClassData& data = classes_[gt.class_id];
      data.ground_truth[frame].push_back(gt.box);
      ++data.total_ground_truth;
    }
    for (const Detection& det : detections) {
      ClassData& data = classes_[det.class_id];
      data.detections.push_back({det.score, frame, det.box});
    }
  }

  double AveragePrecision(int class_id) const {
    auto it = classes_.find(class_id);
    if (it == classes_.end() || it->second.total_ground_truth == 0) {
      return 0.0;
    }
    const ClassData& data = it->second;
    std::vector<ScoredDetection> dets = data.detections;
    std::stable_sort(dets.begin(), dets.end(),
                     [](const ScoredDetection& a, const ScoredDetection& b) {
                       return a.score > b.score;
                     });
    std::map<size_t, std::vector<bool>> claimed;
    for (const auto& [frame, boxes] : data.ground_truth) {
      claimed[frame].assign(boxes.size(), false);
    }
    std::vector<bool> is_tp(dets.size(), false);
    for (size_t i = 0; i < dets.size(); ++i) {
      auto gt_it = data.ground_truth.find(dets[i].frame);
      if (gt_it == data.ground_truth.end()) {
        continue;
      }
      const std::vector<Box>& gts = gt_it->second;
      std::vector<bool>& used = claimed[dets[i].frame];
      double best_iou = iou_threshold_;
      int best_idx = -1;
      for (size_t g = 0; g < gts.size(); ++g) {
        if (used[g]) {
          continue;
        }
        double iou = Iou(dets[i].box, gts[g]);
        if (iou >= best_iou) {
          best_iou = iou;
          best_idx = static_cast<int>(g);
        }
      }
      if (best_idx >= 0) {
        used[static_cast<size_t>(best_idx)] = true;
        is_tp[i] = true;
      }
    }
    double total_gt = static_cast<double>(data.total_ground_truth);
    std::vector<double> precision;
    std::vector<double> recall;
    double tp = 0.0;
    double fp = 0.0;
    for (size_t i = 0; i < dets.size(); ++i) {
      if (is_tp[i]) {
        tp += 1.0;
      } else {
        fp += 1.0;
      }
      precision.push_back(tp / (tp + fp));
      recall.push_back(tp / total_gt);
    }
    if (precision.empty()) {
      return 0.0;
    }
    for (size_t i = precision.size() - 1; i-- > 0;) {
      precision[i] = std::max(precision[i], precision[i + 1]);
    }
    double ap = recall[0] * precision[0];
    for (size_t i = 1; i < precision.size(); ++i) {
      ap += (recall[i] - recall[i - 1]) * precision[i];
    }
    return ap;
  }

  double MeanAveragePrecision() const {
    double sum = 0.0;
    size_t n = 0;
    for (const auto& [class_id, data] : classes_) {
      if (data.total_ground_truth == 0) {
        continue;
      }
      sum += AveragePrecision(class_id);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  std::vector<int> GroundTruthClasses() const {
    std::vector<int> out;
    for (const auto& [class_id, data] : classes_) {
      if (data.total_ground_truth > 0) {
        out.push_back(class_id);
      }
    }
    return out;
  }

  size_t frame_count() const { return frame_count_; }

 private:
  struct ScoredDetection {
    double score = 0.0;
    size_t frame = 0;
    Box box;
  };
  struct ClassData {
    std::vector<ScoredDetection> detections;
    std::map<size_t, std::vector<Box>> ground_truth;
    size_t total_ground_truth = 0;
  };

  double iou_threshold_;
  size_t frame_count_ = 0;
  std::map<int, ClassData> classes_;
};

// Ground-truth classes are [0, kGtClasses); detections may also carry classes
// in [kGtClasses, kAllClasses), which never appear in the ground truth.
constexpr int kGtClasses = 5;
constexpr int kAllClasses = 7;

struct Frame {
  GroundTruthList ground_truth;
  DetectionList detections;
};

// Half the scores come from a five-value grid so ties are common.
double RandomScore(Pcg32& rng) {
  bool on_grid = rng.Bernoulli(0.5);
  double grid_score = 0.1 + 0.2 * static_cast<double>(rng.UniformInt(5));
  double free_score = rng.NextDouble();
  return on_grid ? grid_score : free_score;
}

Box Jitter(Pcg32& rng, const Box& box, double scale) {
  return {box.x + rng.Normal(0.0, scale * box.w),
          box.y + rng.Normal(0.0, scale * box.h),
          box.w * (1.0 + rng.Normal(0.0, scale)),
          box.h * (1.0 + rng.Normal(0.0, scale))};
}

std::vector<Frame> MakeFrames(uint64_t seed, int count) {
  Pcg32 rng(HashKeys({seed, 0xa9e7ull}));
  std::vector<Frame> frames(static_cast<size_t>(count));
  for (Frame& frame : frames) {
    // One frame in five carries no ground truth at all.
    int num_gt = rng.Bernoulli(0.2) ? 0 : 1 + static_cast<int>(rng.UniformInt(5));
    for (int g = 0; g < num_gt; ++g) {
      GroundTruthBox gt;
      gt.class_id = static_cast<int>(rng.UniformInt(kGtClasses));
      gt.box = {rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 300.0),
                rng.Uniform(20.0, 120.0), rng.Uniform(20.0, 120.0)};
      frame.ground_truth.push_back(gt);
      // Zero to two detections per object: near-hits, misses and duplicates.
      int hits = static_cast<int>(rng.UniformInt(3));
      for (int h = 0; h < hits; ++h) {
        Detection det;
        det.class_id = rng.Bernoulli(0.9)
                           ? gt.class_id
                           : static_cast<int>(rng.UniformInt(kAllClasses));
        det.box = Jitter(rng, gt.box, rng.Bernoulli(0.7) ? 0.05 : 0.4);
        det.score = RandomScore(rng);
        frame.detections.push_back(det);
        if (rng.Bernoulli(0.15)) {
          frame.detections.push_back(det);  // exact duplicate
        }
      }
    }
    // One frame in ten adds an integer-grid object and a half-height
    // detection of it: IoU exactly 0.5, on the match threshold.
    bool edge = rng.Bernoulli(0.1);
    GroundTruthBox edge_gt;
    edge_gt.class_id = static_cast<int>(rng.UniformInt(kGtClasses));
    edge_gt.box = {static_cast<double>(rng.UniformInt(400)),
                   static_cast<double>(rng.UniformInt(200)),
                   static_cast<double>(10 + rng.UniformInt(50)),
                   static_cast<double>(2 * (5 + rng.UniformInt(25)))};
    double edge_score = RandomScore(rng);
    if (edge) {
      frame.ground_truth.push_back(edge_gt);
      Detection det;
      det.class_id = edge_gt.class_id;
      det.box = edge_gt.box;
      det.box.h /= 2.0;
      det.score = edge_score;
      frame.detections.push_back(det);
    }
    int false_positives = static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < false_positives; ++f) {
      Detection det;
      det.class_id = static_cast<int>(rng.UniformInt(kAllClasses));
      det.box = {rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 300.0),
                 rng.Uniform(10.0, 100.0), rng.Uniform(10.0, 100.0)};
      det.score = RandomScore(rng);
      frame.detections.push_back(det);
    }
  }
  return frames;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSame(const ApEvaluator& eval, const OracleEvaluator& oracle,
                const char* what) {
  EXPECT_EQ(eval.frame_count(), oracle.frame_count()) << what;
  EXPECT_EQ(eval.GroundTruthClasses(), oracle.GroundTruthClasses()) << what;
  for (int c = -1; c <= kAllClasses; ++c) {
    EXPECT_EQ(Bits(eval.AveragePrecision(c)), Bits(oracle.AveragePrecision(c)))
        << what << " class " << c << ": " << eval.AveragePrecision(c) << " vs "
        << oracle.AveragePrecision(c);
  }
  EXPECT_EQ(Bits(eval.MeanAveragePrecision()), Bits(oracle.MeanAveragePrecision()))
      << what << ": " << eval.MeanAveragePrecision() << " vs "
      << oracle.MeanAveragePrecision();
}

TEST(ApEvaluatorDifferentialTest, GeneratorCoversEdgeCases) {
  int empty_frames = 0;
  int duplicates = 0;
  int ties = 0;
  int no_gt_class_dets = 0;
  int on_threshold = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (const Frame& frame : MakeFrames(seed, 40)) {
      empty_frames += frame.ground_truth.empty() ? 1 : 0;
      for (size_t i = 0; i < frame.detections.size(); ++i) {
        const Detection& a = frame.detections[i];
        for (const GroundTruthBox& gt : frame.ground_truth) {
          on_threshold += Iou(a.box, gt.box) == 0.5 ? 1 : 0;
        }
        no_gt_class_dets += a.class_id >= kGtClasses ? 1 : 0;
        for (size_t j = i + 1; j < frame.detections.size(); ++j) {
          const Detection& b = frame.detections[j];
          ties += a.score == b.score ? 1 : 0;
          duplicates += a.score == b.score && a.box.x == b.box.x ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(empty_frames, 0);
  EXPECT_GT(duplicates, 0);
  EXPECT_GT(ties, duplicates);
  EXPECT_GT(no_gt_class_dets, 0);
  EXPECT_GT(on_threshold, 0);
}

TEST(ApEvaluatorDifferentialTest, SequentialMatchesOracle) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Pcg32 rng(seed);
    int count = static_cast<int>(rng.UniformInt(80));
    double threshold = rng.Bernoulli(0.5) ? 0.5 : 0.3;
    ApEvaluator eval(threshold);
    OracleEvaluator oracle(threshold);
    for (const Frame& frame : MakeFrames(seed, count)) {
      eval.AddFrame(frame.ground_truth, frame.detections);
      oracle.AddFrame(frame.ground_truth, frame.detections);
    }
    ExpectSame(eval, oracle, "sequential");
  }
}

TEST(ApEvaluatorDifferentialTest, MergeAtRandomSplitsMatchesOracle) {
  for (uint64_t seed = 100; seed <= 160; ++seed) {
    Pcg32 rng(seed);
    int count = static_cast<int>(rng.UniformInt(80));
    std::vector<Frame> frames = MakeFrames(seed, count);
    OracleEvaluator oracle;
    for (const Frame& frame : frames) {
      oracle.AddFrame(frame.ground_truth, frame.detections);
    }
    // Up to five random split points (repeats give empty parts).
    std::vector<int> cuts = {0, count};
    int num_cuts = static_cast<int>(rng.UniformInt(6));
    for (int c = 0; c < num_cuts; ++c) {
      cuts.push_back(static_cast<int>(rng.UniformInt(static_cast<uint32_t>(count + 1))));
    }
    std::sort(cuts.begin(), cuts.end());
    ApEvaluator merged;
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      ApEvaluator part;
      for (int f = cuts[p]; f < cuts[p + 1]; ++f) {
        const Frame& frame = frames[static_cast<size_t>(f)];
        part.AddFrame(frame.ground_truth, frame.detections);
      }
      merged.Merge(part);
    }
    ExpectSame(merged, oracle, "merged");
    // Frames added after a merge continue the merged numbering.
    Frame extra = MakeFrames(seed + 1000, 1)[0];
    merged.AddFrame(extra.ground_truth, extra.detections);
    oracle.AddFrame(extra.ground_truth, extra.detections);
    ExpectSame(merged, oracle, "merged+add");
  }
}

}  // namespace
}  // namespace litereconfig
