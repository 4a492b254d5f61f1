// The perf-regression harness (CI perf-smoke job).
//
// Times the scheduler hot path (Decide and SelectFeatures, fast vs. the
// retained reference implementation) and the end-to-end OnlineRunner::Run
// (fast vs. reference scheduler, and the batched plan on vs. off), then
// writes the machine-readable BENCH_perf.json into the working directory (the
// repo root in CI).
//
// Exit status doubles as the in-binary acceptance gate: the fast Decide path
// must be at least 2x the reference in kFull mode, and the pipelined+batched
// execution plan must not run slower than the serial reference executor
// (e2e_pipeline speedup >= 1.0). The ratios are machine-independent (both
// sides run on the same host in the same process); CI additionally compares
// the absolute numbers against bench/perf_baseline.json to catch regressions
// over time.
//
// The train_tiny section times the cold-start training path at unit-test
// scale: the TrainConfig::Tiny() offline pass this binary needs anyway, plus
// one batch of snippet accuracy labels (every branch over a fixed set of
// training snippets, the label loop of the offline pass) on one thread.
//
// The serve_warm section times warm serving: ServeRunner::Run over one fixed
// arrival trace (cost-benefit allocator, admission queueing, no faults) on
// the same models, reported as best-of-reps wall ms and planning rounds per
// second.
//
// --profile additionally runs one instrumented pass of the pipelined e2e
// variant and reports where its thread time goes phase by phase
// (decide/detect/track/other/eval/merge), as a table and a "profile" section
// in the JSON.
//
// Usage: bench_perf [--threads=N] [--out=PATH] [--profile]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/pipeline/trainer.h"
#include "src/serve/serve_runner.h"
#include "src/util/rng.h"
#include "src/video/dataset.h"

namespace litereconfig {
namespace {

// The injected PhaseClockFn for --profile: monotonic microseconds since the
// first call (PhaseProfile only ever subtracts, so the epoch is arbitrary).
double NowMicros() {
  // detlint: allow(mutable-global) bench-only wall-clock epoch, subtract-only
  static WallTimer timer;
  return timer.ElapsedMicros();
}

struct DecisionCase {
  SyntheticVideo video;
  DetectionList anchor;
  double slo_ms = 33.3;
};

// A small pool of realistic decision inputs: real frames, real detector
// outputs, SLOs spanning tight to loose.
std::vector<DecisionCase> MakeCases(const TrainedModels& models) {
  DatasetSpec spec;
  spec.base_seed = 21;
  spec.num_videos = 4;
  spec.frames_per_video = 40;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kVal);
  std::vector<DecisionCase> cases;
  Pcg32 rng(HashKeys({0xbe7cull, 0x9e2full}));
  for (const SyntheticVideo& video : dataset.videos) {
    for (int frame : {0, 13, 27}) {
      DecisionCase c{video, {}, 10.0 + rng.NextDouble() * 60.0};
      c.anchor = ExecutionKernel::DetectAnchor(
          video, frame, models.space->at(rng.NextU32() % models.space->size()),
          /*run_salt=*/3);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

DecisionContext MakeContext(const DecisionCase& c, size_t current) {
  DecisionContext ctx;
  ctx.video = &c.video;
  ctx.frame = 0;
  ctx.anchor_detections = &c.anchor;
  ctx.slo_ms = c.slo_ms;
  ctx.current_branch = current;
  ctx.frames_remaining = c.video.frame_count();
  return ctx;
}

// Mean microseconds per Decide over `iters` calls round-robining the cases.
template <typename DecideFn>
double TimeDecide(const std::vector<DecisionCase>& cases, int iters,
                  const DecideFn& decide) {
  size_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const DecisionCase& c = cases[static_cast<size_t>(i) % cases.size()];
    sink += decide(MakeContext(c, static_cast<size_t>(i) % 7)).branch_index;
  }
  double total_us = timer.ElapsedMicros();
  // Consume the sink so the calls cannot be elided.
  if (sink == static_cast<size_t>(-1)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

template <typename SelectFn>
double TimeSelect(const TrainedModels& models,
                  const std::vector<DecisionCase>& cases, int iters,
                  const SelectFn& select) {
  size_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const DecisionCase& c = cases[static_cast<size_t>(i) % cases.size()];
    std::vector<double> light = ComputeLightFeatures(
        c.video.spec().width, c.video.spec().height, c.anchor);
    std::vector<double> light_pred =
        models.accuracy.at(FeatureKind::kLight).Predict(light, {});
    sink += select(light, light_pred, MakeContext(c, static_cast<size_t>(i) % 7))
                .size();
  }
  double total_us = timer.ElapsedMicros();
  if (sink == static_cast<size_t>(-1)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

// One end-to-end OnlineRunner::Run variant: scheduler config + pipeline flag.
struct RunVariant {
  SchedulerConfig sched;
  bool pipeline = true;
};

// Best-of-reps wall clock per variant, with the variants interleaved within
// each rep so clock-frequency drift hits all of them alike.
std::vector<double> TimeRuns(const TrainedModels& models, const Dataset& dataset,
                             int threads, const std::vector<RunVariant>& variants,
                             int reps) {
  std::vector<double> best_ms(variants.size(), 0.0);
  for (int r = 0; r < reps; ++r) {
    for (size_t v = 0; v < variants.size(); ++v) {
      LiteReconfigProtocol protocol(&models, variants[v].sched, "LiteReconfig");
      EvalConfig config;
      config.slo_ms = 33.3;
      config.threads = threads;
      config.pipeline = variants[v].pipeline;
      WallTimer timer;
      EvalResult result = OnlineRunner::Run(protocol, dataset, config);
      double ms = timer.ElapsedMs();
      if (result.frames == 0) {
        std::cerr << "bench_perf: empty evaluation result\n";
        std::exit(2);
      }
      best_ms[v] = r == 0 ? ms : std::min(best_ms[v], ms);
    }
  }
  return best_ms;
}

// Wall milliseconds to label `count` Tiny training snippets over every branch
// (the two-salt average of the offline pass), on the calling thread.
double TimeLabelBatch(const BranchSpace& space, int count) {
  TrainConfig config = TrainConfig::Tiny();
  Dataset dataset = BuildDataset(config.train_spec, DatasetSplit::kTrain);
  std::vector<SnippetRef> snippets =
      MakeSnippets(dataset, config.snippet_length, config.snippet_stride);
  snippets.resize(std::min(snippets.size(), static_cast<size_t>(count)));
  double sink = 0.0;
  WallTimer timer;
  for (const SnippetRef& snippet : snippets) {
    for (const Branch& branch : space.branches()) {
      sink += ExecutionKernel::SnippetAccuracy(*snippet.video, snippet.start,
                                               snippet.length, branch,
                                               config.label_salt);
      sink += ExecutionKernel::SnippetAccuracy(*snippet.video, snippet.start,
                                               snippet.length, branch,
                                               config.label_salt + 1);
    }
  }
  double ms = timer.ElapsedMs();
  if (sink < 0.0) {
    std::cout << "";
  }
  return ms;
}

// Best-of-reps wall clock of ServeRunner::Run over one fixed arrival trace,
// and the planning rounds the run took (the same every rep).
struct ServeTiming {
  double ms = 0.0;
  int rounds = 0;
};

ServeTiming TimeServe(const TrainedModels& models, int threads, int reps) {
  ArrivalSpec spec;
  spec.seed = 4;
  spec.num_streams = 48;
  spec.frames_per_video = 300;
  spec.mean_interarrival_rounds = 0.5;
  ServeConfig config;
  config.allocator.mode = AllocatorMode::kCostBenefit;
  config.threads = threads;
  ServeTiming timing;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    ServeEval eval = ServeRunner::Run(models, spec, config);
    double ms = timer.ElapsedMs();
    if (eval.result.total_frames == 0) {
      std::cerr << "bench_perf: empty serving result\n";
      std::exit(2);
    }
    timing.ms = r == 0 ? ms : std::min(timing.ms, ms);
    timing.rounds = eval.result.rounds;
  }
  return timing;
}

std::string JsonSection(const std::string& name, double fast, double reference,
                        const std::string& unit) {
  std::ostringstream out;
  out << "  \"" << name << "\": {\"fast_" << unit << "\": " << fast
      << ", \"reference_" << unit << "\": " << reference
      << ", \"speedup\": " << (fast > 0.0 ? reference / fast : 0.0) << "}";
  return out.str();
}

int Run(int argc, char** argv) {
  int threads = BenchThreads(argc, argv);
  std::string out_path = "BENCH_perf.json";
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--profile") {
      profile = true;
    }
  }

  // Tiny-scale models: the fast-vs-reference ratio depends on the branch
  // space (shared with production scale), not on training fidelity, and CI
  // needs this binary cheap.
  WallTimer train_timer;
  TrainedModels models =
      OfflineTrainer::Train(TrainConfig::Tiny(), BranchSpace::Default());
  double train_ms = train_timer.ElapsedMs();
  constexpr int kLabelSnippets = 8;
  double labels_ms = TimeLabelBatch(*models.space, kLabelSnippets);
  std::vector<DecisionCase> cases = MakeCases(models);

  constexpr int kDecideIters = 300;
  LiteReconfigScheduler full(&models, LiteReconfigProtocol::FullConfig());
  double full_fast_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.Decide(ctx);
  });
  double full_ref_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.DecideReference(ctx);
  });

  LiteReconfigScheduler mincost(&models, LiteReconfigProtocol::MinCostConfig());
  double mincost_fast_us =
      TimeDecide(cases, kDecideIters,
                 [&](const DecisionContext& ctx) { return mincost.Decide(ctx); });
  double mincost_ref_us = TimeDecide(
      cases, kDecideIters,
      [&](const DecisionContext& ctx) { return mincost.DecideReference(ctx); });

  double select_fast_us = TimeSelect(
      models, cases, kDecideIters,
      [&](const std::vector<double>& light, const std::vector<double>& light_pred,
          const DecisionContext& ctx) {
        return full.SelectFeatures(light, light_pred, ctx);
      });
  double select_ref_us = TimeSelect(
      models, cases, kDecideIters,
      [&](const std::vector<double>& light, const std::vector<double>& light_pred,
          const DecisionContext& ctx) {
        return full.SelectFeaturesReference(light, light_pred, ctx);
      });

  // Fewer videos than workers: the production-shaped case of a stream count
  // below the core count. The headline e2e comparison is fast-path vs
  // reference scheduler (the scheduler pass dominates the per-GoF cost);
  // pipeline on/off is reported alongside it.
  DatasetSpec e2e_spec;
  e2e_spec.base_seed = 33;
  e2e_spec.num_videos = 2;
  e2e_spec.frames_per_video = 360;
  Dataset e2e_dataset = BuildDataset(e2e_spec, DatasetSplit::kVal);
  RunVariant run_fast{LiteReconfigProtocol::FullConfig(), /*pipeline=*/true};
  RunVariant run_reference = run_fast;
  run_reference.sched.use_fast_path = false;
  RunVariant run_serial = run_fast;
  run_serial.pipeline = false;
  std::vector<double> run_ms = TimeRuns(
      models, e2e_dataset, threads, {run_fast, run_reference, run_serial},
      /*reps=*/9);
  double run_fast_ms = run_ms[0];
  double run_reference_ms = run_ms[1];
  double run_serial_ms = run_ms[2];

  ServeTiming serve = TimeServe(models, threads, /*reps=*/9);
  double serve_rounds_per_s =
      serve.ms > 0.0 ? 1000.0 * serve.rounds / serve.ms : 0.0;

  double decide_speedup = full_fast_us > 0.0 ? full_ref_us / full_fast_us : 0.0;
  double pipeline_speedup =
      run_fast_ms > 0.0 ? run_serial_ms / run_fast_ms : 0.0;

  // One instrumented pass of the pipelined variant: where the time goes.
  PhaseProfile phases;
  double profile_wall_ms = 0.0;
  if (profile) {
    LiteReconfigProtocol protocol(&models, run_fast.sched, "LiteReconfig");
    EvalConfig config;
    config.slo_ms = 33.3;
    config.threads = threads;
    config.pipeline = true;
    config.now_us = NowMicros;
    WallTimer timer;
    EvalResult result = OnlineRunner::Run(protocol, e2e_dataset, config);
    profile_wall_ms = timer.ElapsedMs();
    phases = result.phases;
  }

  TablePrinter table({"section", "fast", "reference", "speedup"});
  table.AddRow({"Decide (kFull), us", FmtDouble(full_fast_us, 1),
                FmtDouble(full_ref_us, 1), FmtDouble(decide_speedup, 2)});
  table.AddRow({"Decide (kMinCost), us", FmtDouble(mincost_fast_us, 1),
                FmtDouble(mincost_ref_us, 1),
                FmtDouble(mincost_fast_us > 0.0 ? mincost_ref_us / mincost_fast_us
                                                : 0.0,
                          2)});
  table.AddRow({"SelectFeatures, us", FmtDouble(select_fast_us, 1),
                FmtDouble(select_ref_us, 1),
                FmtDouble(select_fast_us > 0.0 ? select_ref_us / select_fast_us
                                               : 0.0,
                          2)});
  table.AddRow({"Run e2e (sched fast/ref), ms", FmtDouble(run_fast_ms, 1),
                FmtDouble(run_reference_ms, 1),
                FmtDouble(run_fast_ms > 0.0 ? run_reference_ms / run_fast_ms
                                            : 0.0,
                          2)});
  table.AddRow({"Run e2e (pipeline on/off), ms", FmtDouble(run_fast_ms, 1),
                FmtDouble(run_serial_ms, 1), FmtDouble(pipeline_speedup, 2)});
  table.AddRow({"Serve warm, ms (" + FmtDouble(serve_rounds_per_s, 0) +
                    " rounds/s)",
                FmtDouble(serve.ms, 1), "", ""});
  table.AddRow({"Train Tiny, ms", FmtDouble(train_ms, 1), "", ""});
  table.AddRow({"Label " + std::to_string(kLabelSnippets) + " snippets, ms",
                FmtDouble(labels_ms, 1), "", ""});
  table.Print(std::cout);

  if (profile) {
    // Shares are over summed thread time, not process wall time: run_us is
    // every video's RunVideo span on its own thread, eval_us its AP
    // accumulation and merge_us the serial merge. Every phase nests in
    // exactly one of those, so the rows sum to 100% at any --threads.
    double thread_us = phases.run_us + phases.eval_us + phases.merge_us;
    double other_us =
        phases.run_us - phases.decide_us - phases.detect_us - phases.track_us;
    TablePrinter prof({"phase", "ms", "share"});
    auto add = [&](const std::string& phase, double us) {
      prof.AddRow({phase, FmtDouble(us / 1000.0, 2),
                   FmtDouble(thread_us > 0.0 ? 100.0 * us / thread_us : 0.0, 1) +
                       "%"});
    };
    add("decide", phases.decide_us);
    add("detect", phases.detect_us);
    add("track", phases.track_us);
    add("other", other_us);
    add("eval", phases.eval_us);
    add("merge", phases.merge_us);
    add("thread total", thread_us);
    prof.AddRow({"wall", FmtDouble(profile_wall_ms, 2), ""});
    prof.Print(std::cout);
    std::cout << "[bench] profile: " << phases.gofs << " gofs, "
              << phases.decisions << " session decisions ("
              << phases.table_builds << " table builds, "
              << phases.switch_row_reuses << " switch-row reuses)\n";
  }

  std::ofstream json(out_path);
  json << "{\n";
  json << "  \"threads\": " << threads << ",\n";
  json << JsonSection("decide_full", full_fast_us, full_ref_us, "us") << ",\n";
  json << JsonSection("decide_mincost", mincost_fast_us, mincost_ref_us, "us")
       << ",\n";
  json << JsonSection("select_features", select_fast_us, select_ref_us, "us")
       << ",\n";
  json << JsonSection("e2e_run", run_fast_ms, run_reference_ms, "ms") << ",\n";
  json << "  \"e2e_pipeline\": {\"on_ms\": " << run_fast_ms
       << ", \"off_ms\": " << run_serial_ms
       << ", \"speedup\": " << pipeline_speedup << "},\n";
  json << "  \"serve_warm\": {\"fast_ms\": " << serve.ms
       << ", \"rounds\": " << serve.rounds
       << ", \"rounds_per_s\": " << serve_rounds_per_s << "},\n";
  json << "  \"train_tiny\": {\"fast_ms\": " << train_ms
       << ", \"labels_ms\": " << labels_ms
       << ", \"label_snippets\": " << kLabelSnippets << "}";
  if (profile) {
    json << ",\n  \"profile\": {\"wall_ms\": " << profile_wall_ms
         << ", \"decide_ms\": " << phases.decide_us / 1000.0
         << ", \"detect_ms\": " << phases.detect_us / 1000.0
         << ", \"track_ms\": " << phases.track_us / 1000.0
         << ", \"run_ms\": " << phases.run_us / 1000.0
         << ", \"eval_ms\": " << phases.eval_us / 1000.0
         << ", \"merge_ms\": " << phases.merge_us / 1000.0
         << ", \"gofs\": " << phases.gofs << "}";
  }
  json << "\n}\n";
  json.close();
  std::cout << "[bench] wrote " << out_path << "\n";

  if (decide_speedup < 2.0) {
    std::cerr << "bench_perf: Decide (kFull) fast path is only "
              << FmtDouble(decide_speedup, 2)
              << "x the reference; the acceptance gate is 2x\n";
    return 1;
  }
  if (pipeline_speedup < 1.0) {
    std::cerr << "bench_perf: the pipelined+batched plan is "
              << FmtDouble(pipeline_speedup, 2)
              << "x the serial reference executor; the acceptance gate is "
                 "1.0x (the batched plan must never cost throughput)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
