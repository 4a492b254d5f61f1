// Engineering micro-benchmarks (google-benchmark) for the hot paths of the
// simulator and scheduler. Not a paper artifact; used to keep the experiment
// harness fast enough to regenerate every table on a laptop.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/det/detector.h"
#include "src/features/feature.h"
#include "src/mbek/kernel.h"
#include "src/nn/mlp.h"
#include "src/pipeline/trainer.h"
#include "src/video/raster.h"
#include "src/vision/metrics.h"

namespace litereconfig {
namespace {

const SyntheticVideo& BenchVideo() {
  static const SyntheticVideo* video = [] {
    VideoSpec spec;
    spec.seed = 11;
    spec.frame_count = 120;
    spec.archetype = SceneArchetype::kCrowded;
    return new SyntheticVideo(SyntheticVideo::Generate(spec));
  }();
  return *video;
}

void BM_VideoGeneration(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    VideoSpec spec;
    spec.seed = seed++;
    spec.frame_count = 120;
    spec.archetype = SceneArchetype::kCrowded;
    benchmark::DoNotOptimize(SyntheticVideo::Generate(spec));
  }
}
BENCHMARK(BM_VideoGeneration);

void BM_DetectorInvocation(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DetectorSim::Detect(video, t++ % video.frame_count(), {448, 100}));
  }
}
BENCHMARK(BM_DetectorInvocation);

void BM_GofExecution(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  Branch branch;
  branch.detector = {448, 100};
  branch.gof = static_cast<int>(state.range(0));
  branch.has_tracker = true;
  branch.tracker = {TrackerType::kKcf, 2};
  // The executors' form: the anchor, then the tracked frames written into
  // slots through one reused track arena.
  TrackBatch arena;
  std::vector<DetectionList> slots(static_cast<size_t>(branch.gof));
  int t = 0;
  for (auto _ : state) {
    int start = t % (video.frame_count() - branch.gof);
    slots[0] = ExecutionKernel::DetectAnchor(video, start, branch);
    benchmark::DoNotOptimize(ExecutionKernel::TrackRemainderInto(
        video, start, branch, slots[0], /*run_salt=*/0, arena, slots.data() + 1));
    t += branch.gof;
  }
}
BENCHMARK(BM_GofExecution)->Arg(4)->Arg(20);

void BM_RasterRender(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RenderFrame(video, t++ % video.frame_count()));
  }
}
BENCHMARK(BM_RasterRender);

void BM_HogExtraction(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  DetectionList anchor = FasterRcnnSim::Detect(video, 0, {448, 100});
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExtractFeature(FeatureKind::kHog, video, t++ % video.frame_count(), anchor));
  }
}
BENCHMARK(BM_HogExtraction);

void BM_MobileNetFeature(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  DetectionList anchor;
  int t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractFeature(FeatureKind::kMobileNetV2, video,
                                            t++ % video.frame_count(), anchor));
  }
}
BENCHMARK(BM_MobileNetFeature);

void BM_AccuracyNetForward(benchmark::State& state) {
  MlpConfig config;
  config.layer_dims = {100, 96, 96, 96, 204};
  Mlp mlp(config);
  std::vector<double> input(100, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Predict(input));
  }
}
BENCHMARK(BM_AccuracyNetForward);

void BM_MapEvaluation(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  std::vector<GroundTruthList> gts;
  std::vector<DetectionList> dets;
  for (int t = 0; t < video.frame_count(); ++t) {
    gts.push_back(video.frame(t).VisibleGroundTruth());
    dets.push_back(DetectorSim::Detect(video, t, {448, 100}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeanAveragePrecision(gts, dets));
  }
}
BENCHMARK(BM_MapEvaluation);

void BM_SnippetAccuracyLabel(benchmark::State& state) {
  const SyntheticVideo& video = BenchVideo();
  Branch branch;
  branch.detector = {320, 10};
  branch.gof = 8;
  branch.has_tracker = true;
  branch.tracker = {TrackerType::kMedianFlow, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExecutionKernel::SnippetAccuracy(video, 0, 40, branch));
  }
}
BENCHMARK(BM_SnippetAccuracyLabel);

}  // namespace
}  // namespace litereconfig
