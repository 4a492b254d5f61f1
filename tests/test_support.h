// Shared test fixtures: a process-wide tiny trained-model bundle so the
// scheduler/pipeline/integration tests pay the offline pass once per binary.
#ifndef TESTS_TEST_SUPPORT_H_
#define TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include "src/pipeline/trainer.h"
#include "src/sched/cpu_family.h"
#include "src/video/dataset.h"

namespace litereconfig {

inline const TrainedModels& TinyModels() {
  static const TrainedModels* models = new TrainedModels(
      OfflineTrainer::Train(TrainConfig::Tiny(), BranchSpace::Default()));
  return *models;
}

// The tiny bundle grafted onto the CPU-extended branch space (the denial
// fallback family) — pure arithmetic over TinyModels, no second offline pass.
inline const TrainedModels& TinyCpuFamilyModels() {
  static const TrainedModels* models =
      new TrainedModels(ExtendWithCpuFamily(TinyModels()));
  return *models;
}

inline const Dataset& TinyValidation() {
  static const Dataset* dataset = new Dataset(BuildDataset(
      DatasetSpec{/*base_seed=*/7, /*num_videos=*/4, /*frames_per_video=*/60},
      DatasetSplit::kVal));
  return *dataset;
}

inline const Dataset& TinyTrain() {
  static const Dataset* dataset = new Dataset(
      BuildDataset(TrainConfig::Tiny().train_spec, DatasetSplit::kTrain));
  return *dataset;
}

// Field-for-field decision identity: `trial` labels the failure. Every double
// is compared bit for bit, not approximately — the fast path and the session
// forms must perform the same floating-point operations in the same order.
inline void ExpectIdenticalDecisions(const SchedulerDecision& fast,
                                     const SchedulerDecision& reference,
                                     int trial) {
  EXPECT_EQ(fast.branch_index, reference.branch_index) << "trial " << trial;
  ASSERT_EQ(fast.heavy_features.size(), reference.heavy_features.size())
      << "trial " << trial;
  for (size_t i = 0; i < fast.heavy_features.size(); ++i) {
    EXPECT_EQ(fast.heavy_features[i], reference.heavy_features[i])
        << "trial " << trial << " feature " << i;
  }
  EXPECT_EQ(fast.scheduler_cost_ms, reference.scheduler_cost_ms)
      << "trial " << trial;
  EXPECT_EQ(fast.switch_cost_ms, reference.switch_cost_ms) << "trial " << trial;
  EXPECT_EQ(fast.predicted_accuracy, reference.predicted_accuracy)
      << "trial " << trial;
  EXPECT_EQ(fast.predicted_frame_ms, reference.predicted_frame_ms)
      << "trial " << trial;
  EXPECT_EQ(fast.infeasible, reference.infeasible) << "trial " << trial;
  ASSERT_EQ(fast.light_features.size(), reference.light_features.size())
      << "trial " << trial;
  for (size_t i = 0; i < fast.light_features.size(); ++i) {
    EXPECT_EQ(fast.light_features[i], reference.light_features[i])
        << "trial " << trial << " light " << i;
  }
}

}  // namespace litereconfig

#endif  // TESTS_TEST_SUPPORT_H_
