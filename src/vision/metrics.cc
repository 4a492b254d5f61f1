#include "src/vision/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace litereconfig {

ApEvaluator::ApEvaluator(double iou_threshold) : iou_threshold_(iou_threshold) {}

void ApEvaluator::AddFrame(const GroundTruthList& ground_truth,
                           const DetectionList& detections) {
  size_t frame = frame_count_++;
  for (const GroundTruthBox& gt : ground_truth) {
    ClassData& data = classes_[gt.class_id];
    if (data.gt_frames.empty() || data.gt_frames.back().frame != frame) {
      data.gt_frames.push_back({frame, data.gt_boxes.size(), 0});
    }
    data.gt_boxes.push_back(gt.box);
    ++data.gt_frames.back().count;
  }
  for (const Detection& det : detections) {
    ClassData& data = classes_[det.class_id];
    data.detections.push_back({det.score, frame, det.box});
  }
}

void ApEvaluator::Merge(const ApEvaluator& other) {
  assert(iou_threshold_ == other.iou_threshold_);
  size_t offset = frame_count_;
  frame_count_ += other.frame_count_;
  for (const auto& [class_id, other_data] : other.classes_) {
    ClassData& data = classes_[class_id];
    // Detection order per class stays (video order, then score-ranked later by
    // a stable sort), so ties resolve exactly as in sequential accumulation.
    for (const ScoredDetection& det : other_data.detections) {
      data.detections.push_back({det.score, det.frame + offset, det.box});
    }
    size_t box_offset = data.gt_boxes.size();
    for (const GtFrame& gt_frame : other_data.gt_frames) {
      data.gt_frames.push_back(
          {gt_frame.frame + offset, gt_frame.begin + box_offset, gt_frame.count});
    }
    data.gt_boxes.insert(data.gt_boxes.end(), other_data.gt_boxes.begin(),
                         other_data.gt_boxes.end());
  }
}

double ApEvaluator::AveragePrecision(int class_id) const {
  auto it = classes_.find(class_id);
  if (it == classes_.end() || it->second.gt_boxes.empty()) {
    return 0.0;
  }
  const ClassData& data = it->second;
  const std::vector<ScoredDetection>& dets = data.detections;
  if (dets.empty()) {
    return 0.0;
  }
  // Each detection's ground-truth frame (an index into gt_frames, or npos
  // when its frame has none of this class): one merge walk, since both lists
  // are in frame order.
  constexpr size_t kNoGroundTruth = static_cast<size_t>(-1);
  std::vector<size_t> gt_frame_of(dets.size(), kNoGroundTruth);
  size_t f = 0;
  for (size_t i = 0; i < dets.size(); ++i) {
    while (f < data.gt_frames.size() && data.gt_frames[f].frame < dets[i].frame) {
      ++f;
    }
    if (f < data.gt_frames.size() && data.gt_frames[f].frame == dets[i].frame) {
      gt_frame_of[i] = f;
    }
  }
  // Rank by descending score; the stable sort keeps ties in insertion order.
  std::vector<size_t> rank(dets.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(), [&dets](size_t a, size_t b) {
    return dets[a].score > dets[b].score;
  });
  // Greedy matching against the not-yet-claimed boxes of the detection's
  // frame, building the precision-recall curve as it goes.
  std::vector<uint8_t> claimed(data.gt_boxes.size(), 0);
  double total_gt = static_cast<double>(data.gt_boxes.size());
  std::vector<double> precision(dets.size());
  std::vector<double> recall(dets.size());
  double tp = 0.0;
  double fp = 0.0;
  for (size_t k = 0; k < rank.size(); ++k) {
    size_t i = rank[k];
    int best_idx = -1;
    if (gt_frame_of[i] != kNoGroundTruth) {
      const GtFrame& gt_frame = data.gt_frames[gt_frame_of[i]];
      double best_iou = iou_threshold_;
      for (size_t g = 0; g < gt_frame.count; ++g) {
        if (claimed[gt_frame.begin + g]) {
          continue;
        }
        double iou = Iou(dets[i].box, data.gt_boxes[gt_frame.begin + g]);
        if (iou >= best_iou) {
          best_iou = iou;
          best_idx = static_cast<int>(g);
        }
      }
      if (best_idx >= 0) {
        claimed[gt_frame.begin + static_cast<size_t>(best_idx)] = 1;
      }
    }
    if (best_idx >= 0) {
      tp += 1.0;
    } else {
      fp += 1.0;
    }
    precision[k] = tp / (tp + fp);
    recall[k] = tp / total_gt;
  }
  // Interpolated AP: monotone non-increasing precision envelope from the
  // right, integrated over recall.
  for (size_t k = precision.size() - 1; k-- > 0;) {
    precision[k] = std::max(precision[k], precision[k + 1]);
  }
  double ap = recall[0] * precision[0];
  for (size_t k = 1; k < precision.size(); ++k) {
    ap += (recall[k] - recall[k - 1]) * precision[k];
  }
  return ap;
}

double ApEvaluator::MeanAveragePrecision() const {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& [class_id, data] : classes_) {
    if (data.gt_boxes.empty()) {
      continue;
    }
    sum += AveragePrecision(class_id);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<int> ApEvaluator::GroundTruthClasses() const {
  std::vector<int> out;
  for (const auto& [class_id, data] : classes_) {
    if (!data.gt_boxes.empty()) {
      out.push_back(class_id);
    }
  }
  return out;
}

double MeanAveragePrecision(const std::vector<GroundTruthList>& ground_truth,
                            const std::vector<DetectionList>& detections,
                            double iou_threshold) {
  assert(ground_truth.size() == detections.size());
  ApEvaluator eval(iou_threshold);
  for (size_t i = 0; i < ground_truth.size(); ++i) {
    eval.AddFrame(ground_truth[i], detections[i]);
  }
  return eval.MeanAveragePrecision();
}

}  // namespace litereconfig
