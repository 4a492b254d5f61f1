// The parallel evaluation engine's binding contract: OnlineRunner::Run produces
// a field-for-field identical EvalResult for every thread count. The fan-out
// merges per-video stats and AP accumulations in video order, so threads only
// change wall-clock time, never metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string_view>

#include "src/baselines/approxdet.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/util/rng.h"
#include "src/vision/metrics.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

// Exact equality everywhere: the requirement is bit-identical results, not
// metrics that agree to within a tolerance.
void ExpectIdentical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p95_ms, b.p95_ms);
  EXPECT_EQ(a.violation_rate, b.violation_rate);
  EXPECT_EQ(a.detector_frac, b.detector_frac);
  EXPECT_EQ(a.tracker_frac, b.tracker_frac);
  EXPECT_EQ(a.scheduler_frac, b.scheduler_frac);
  EXPECT_EQ(a.switch_frac, b.switch_frac);
  EXPECT_EQ(a.branch_coverage, b.branch_coverage);
  EXPECT_EQ(a.switch_count, b.switch_count);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_absorbed, b.faults_absorbed);
  EXPECT_EQ(a.degraded_frames, b.degraded_frames);
  EXPECT_EQ(a.mean_recovery_gofs, b.mean_recovery_gofs);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.reanchors, b.reanchors);
  EXPECT_EQ(a.preemptive_replans, b.preemptive_replans);
  EXPECT_EQ(a.forecast_absorbed, b.forecast_absorbed);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].kind, b.failures[i].kind) << "failure " << i;
    EXPECT_EQ(a.failures[i].frame, b.failures[i].frame) << "failure " << i;
    EXPECT_EQ(a.failures[i].recovered, b.failures[i].recovered) << "failure " << i;
    EXPECT_EQ(a.failures[i].video_seed, b.failures[i].video_seed) << "failure " << i;
  }
  ASSERT_EQ(a.gof_frame_ms.size(), b.gof_frame_ms.size());
  for (size_t i = 0; i < a.gof_frame_ms.size(); ++i) {
    EXPECT_EQ(a.gof_frame_ms[i], b.gof_frame_ms[i]) << "GoF sample " << i;
  }
}

EvalResult RunWithThreads(Protocol& protocol, int threads,
                          double contention = 0.0) {
  EvalConfig config;
  config.slo_ms = 33.3;
  config.gpu_contention = contention;
  config.threads = threads;
  return OnlineRunner::Run(protocol, TinyValidation(), config);
}

TEST(ParallelEvalTest, LiteReconfigIsIdenticalAcrossThreadCounts) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunWithThreads(protocol, 1);
  EXPECT_GT(sequential.frames, 0u);
  for (int threads : {2, 4, 8}) {
    EvalResult parallel = RunWithThreads(protocol, threads);
    ExpectIdentical(sequential, parallel);
  }
}

TEST(ParallelEvalTest, LiteReconfigIsIdenticalUnderContention) {
  // Contention exercises the per-video preheat calibration path; it too must
  // be independent of the fan-out width.
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunWithThreads(protocol, 1, /*contention=*/0.5);
  EvalResult parallel = RunWithThreads(protocol, 4, /*contention=*/0.5);
  ExpectIdentical(sequential, parallel);
}

TEST(ParallelEvalTest, ParallelRunIsStableAcrossRepeats) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult first = RunWithThreads(protocol, 4);
  EvalResult second = RunWithThreads(protocol, 4);
  ExpectIdentical(first, second);
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// The single execution plan (scheduler session plus arena-backed tracker)
// reproduces the serial reference executor it replaced: 0x308c4feebace0768 is
// the FNV-1a digest of EvalResultJson that the serial executor wrote for this
// run, and every thread count must write the same bytes.
TEST(ParallelEvalTest, PipelinedRunMatchesSerialAtEveryThreadCount) {
  constexpr uint64_t kSerialDigest = 0x308c4feebace0768ull;
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  for (int threads : {1, 2, 4, 8}) {
    EvalResult result = RunWithThreads(protocol, threads);
    EXPECT_GT(result.frames, 0u);
    EXPECT_EQ(Fnv1a(EvalResultJson(result)), kSerialDigest)
        << "threads=" << threads;
  }
}

// Runs `base` at threads=1 and checks that {2, 4, 8} threads reproduce it.
void ExpectIdenticalAcrossThreadCounts(Protocol& protocol, EvalConfig base) {
  base.threads = 1;
  EvalResult sequential = OnlineRunner::Run(protocol, TinyValidation(), base);
  EXPECT_GT(sequential.frames, 0u);
  EXPECT_GT(sequential.faults_injected, 0);
  for (int threads : {2, 4, 8}) {
    EvalConfig config = base;
    config.threads = threads;
    ExpectIdentical(sequential,
                    OnlineRunner::Run(protocol, TinyValidation(), config));
  }
}

// Faults with the predictive-robustness loops armed: each stream's scheduler
// session and track arena carry state across GoFs, fault paths included, and
// none of it may depend on the fan-out width.
TEST(ParallelEvalTest, LiteReconfigIsIdenticalUnderFaultsAndPredictive) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig base;
  base.slo_ms = 33.3;
  base.faults = FaultSpec::Moderate();
  base.fault_seed = 11;
  base.degrade = true;
  base.predictive = true;
  ExpectIdenticalAcrossThreadCounts(protocol, base);
}

// The same with GPU contention armed: contention drives the per-GoF EWMA
// recalibration, so every decision prices the latency column at a fresh
// calibration while the session reuses the switch-cost row and effective-GoF
// columns.
TEST(ParallelEvalTest, LiteReconfigIsIdenticalUnderFaultsPredictiveAndContention) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig base;
  base.slo_ms = 33.3;
  base.gpu_contention = 0.5;
  base.faults = FaultSpec::Moderate();
  base.fault_seed = 23;
  base.degrade = true;
  base.predictive = true;
  ExpectIdenticalAcrossThreadCounts(protocol, base);
}

// A shared tick counter as the injected profiling clock: every read advances
// it, so the phases one video times on its own thread are disjoint slices of
// that video's RunVideo span at any thread count.
std::atomic<long> g_ticks{0};
double TickClockUs() { return static_cast<double>(g_ticks.fetch_add(1) + 1); }

// The per-phase profile times every phase on its video's own thread, so the
// decide, detect and track phases nest inside run_us at every thread count —
// the invariant that makes bench_perf's --profile shares sum to 100%.
TEST(ParallelEvalTest, PhaseProfileNestsInsideRunTimeAtEveryThreadCount) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  for (int threads : {1, 4}) {
    EvalConfig config;
    config.slo_ms = 33.3;
    config.threads = threads;
    config.now_us = &TickClockUs;
    EvalResult result = OnlineRunner::Run(protocol, TinyValidation(), config);
    const PhaseProfile& p = result.phases;
    EXPECT_GT(p.gofs, 0) << "threads " << threads;
    EXPECT_GT(p.decide_us, 0.0) << "threads " << threads;
    EXPECT_GT(p.detect_us, 0.0) << "threads " << threads;
    EXPECT_GT(p.track_us, 0.0) << "threads " << threads;
    EXPECT_LE(p.decide_us + p.detect_us + p.track_us, p.run_us)
        << "threads " << threads;
  }
}

TEST(ParallelEvalTest, ApproxDetIsIdenticalAcrossThreadCounts) {
  ApproxDetProtocol protocol(&TinyModels());
  EvalResult sequential = RunWithThreads(protocol, 1, /*contention=*/0.5);
  EvalResult parallel = RunWithThreads(protocol, 4, /*contention=*/0.5);
  ExpectIdentical(sequential, parallel);
}

TEST(ParallelEvalTest, DefaultThreadsMatchesExplicitOne) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult defaulted = RunWithThreads(protocol, /*threads=*/0);
  EvalResult sequential = RunWithThreads(protocol, 1);
  ExpectIdentical(defaulted, sequential);
}

// ApEvaluator::Merge must reproduce the sequential accumulation exactly —
// OnlineRunner's video-order merge of per-video evaluators depends on it.
TEST(ParallelEvalTest, ApEvaluatorMergeMatchesSequentialAccumulation) {
  Pcg32 rng(1234);
  std::vector<GroundTruthList> truths;
  std::vector<DetectionList> detections;
  for (int frame = 0; frame < 40; ++frame) {
    GroundTruthList truth;
    DetectionList dets;
    int objects = 1 + static_cast<int>(rng.NextU32() % 4);
    for (int i = 0; i < objects; ++i) {
      GroundTruthBox gt;
      gt.box = Box{rng.NextDouble() * 500, rng.NextDouble() * 300, 60, 40};
      gt.class_id = static_cast<int>(rng.NextU32() % 5);
      truth.push_back(gt);
      Detection det;
      // Slightly jittered copy of the truth box with a varying score; some
      // scores tie on purpose to exercise stable-sort order preservation.
      det.box = Box{gt.box.x + rng.NextDouble() * 10, gt.box.y, 60, 40};
      det.class_id = gt.class_id;
      det.score = (rng.NextU32() % 8) / 8.0;
      dets.push_back(det);
    }
    truths.push_back(std::move(truth));
    detections.push_back(std::move(dets));
  }

  ApEvaluator sequential;
  for (size_t frame = 0; frame < truths.size(); ++frame) {
    sequential.AddFrame(truths[frame], detections[frame]);
  }

  // Split the frames into three "videos", evaluate each independently, merge.
  ApEvaluator merged;
  for (size_t begin : {size_t{0}, size_t{13}, size_t{27}}) {
    size_t end = begin == 0 ? 13 : (begin == 13 ? 27 : truths.size());
    ApEvaluator per_video;
    for (size_t frame = begin; frame < end; ++frame) {
      per_video.AddFrame(truths[frame], detections[frame]);
    }
    merged.Merge(per_video);
  }

  EXPECT_EQ(merged.frame_count(), sequential.frame_count());
  ASSERT_EQ(merged.GroundTruthClasses(), sequential.GroundTruthClasses());
  for (int class_id : sequential.GroundTruthClasses()) {
    EXPECT_EQ(merged.AveragePrecision(class_id),
              sequential.AveragePrecision(class_id))
        << "class " << class_id;
  }
  EXPECT_EQ(merged.MeanAveragePrecision(), sequential.MeanAveragePrecision());
}

TEST(ParallelEvalTest, MergeIntoEmptyEvaluatorIsIdentity) {
  GroundTruthList truth;
  GroundTruthBox gt;
  gt.box = Box{10, 10, 50, 50};
  gt.class_id = 2;
  truth.push_back(gt);
  Detection det;
  det.box = gt.box;
  det.class_id = 2;
  det.score = 0.9;

  ApEvaluator source;
  source.AddFrame(truth, {det});
  ApEvaluator target;
  target.Merge(source);
  EXPECT_EQ(target.frame_count(), source.frame_count());
  EXPECT_EQ(target.MeanAveragePrecision(), source.MeanAveragePrecision());
}

}  // namespace
}  // namespace litereconfig
