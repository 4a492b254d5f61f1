// Multi-tenant serving runner: admits a seeded arrival trace of live streams
// into the StreamingService and reports per-class deadline misses, aggregate
// accuracy and the per-stream outcomes. The --json artifact is byte-identical
// at any --threads value for a fixed arrival seed — the serve-determinism CI
// job diffs exactly that file across thread counts.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/serve/serve_runner.h"
#include "src/pipeline/workbench.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

namespace litereconfig {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "serve_run — serve an open set of live video streams on one device, with "
      "admission control, endogenous contention and a global GPU-budget "
      "allocator.");
  flags.Define("device", "tx2", "target device: tx2 | xavier");
  flags.Define("streams", "8", "streams in the arrival trace");
  flags.Define("arrival_seed", "1", "seed of the arrival trace");
  flags.Define("frames", "120", "frames per stream");
  flags.Define("slo", "33.3", "per-frame latency objective, ms");
  flags.Define("interarrival", "2", "mean rounds between arrivals");
  flags.Define("allocator", "costbenefit",
               "GPU budget policy: costbenefit | equalsplit");
  flags.Define("capacity", "0.9",
               "admission capacity: max total GPU share across streams");
  flags.Define("max_streams", "16", "max concurrently admitted streams");
  flags.Define("threads", "0",
               "worker threads for the per-stream fan-out (0 = all cores); "
               "results (json and trace included) are identical for every value");
  std::string preset_list = FaultPresetList();
  flags.Define("faults", "none", "fault-injection schedule: " + preset_list);
  flags.Define("fault_seed", "1",
               "seed for the deterministic fault streams (device-wide "
               "intervals + per-stream substreams)");
  flags.Define("degrade", "1",
               "1 = graceful degradation (per-stream retry/coast plus the "
               "pressure ladder: demote to the CPU family, coast, renegotiate, "
               "evict); 0 = naive blocking retries and no load shedding");
  flags.Define("cpu_family", "0",
               "1 = extend the branch space with the CPU-only detector family "
               "so denied rounds run scheduled CPU detection instead of "
               "tracker-only coasting");
  flags.Define("json", "", "write the serving result as one-line JSON here");
  flags.Define("trace", "", "write the per-stream decision trace (JSONL) here");
  if (!flags.Parse(argc, argv)) {
    flags.PrintHelp(flags.help_requested() ? std::cout : std::cerr);
    return flags.help_requested() ? 0 : 1;
  }

  // Every flag is validated before the (possibly slow, first-run training)
  // workbench load, so a bad value fails fast.
  DeviceType device = flags.GetChoice("device", {"tx2", "xavier"}) == "xavier"
                          ? DeviceType::kXavier
                          : DeviceType::kTx2;
  std::optional<AllocatorMode> mode =
      AllocatorModeFromName(flags.GetString("allocator"));
  if (!mode) {
    std::cerr << "unknown allocator '" << flags.GetString("allocator")
              << "' (want costbenefit | equalsplit)\n";
    return 1;
  }

  ArrivalSpec spec;
  spec.seed = static_cast<uint64_t>(flags.GetInt("arrival_seed"));
  spec.num_streams = flags.GetCount("streams");
  spec.frames_per_video = flags.GetCount("frames");
  spec.slo_ms = flags.GetPositive("slo");
  spec.mean_interarrival_rounds = flags.GetDouble("interarrival");

  ServeConfig config;
  config.allocator.mode = *mode;
  config.admission.capacity = flags.GetDouble("capacity");
  config.admission.max_streams =
      static_cast<size_t>(std::max(flags.GetInt("max_streams"), 0));
  config.threads = flags.GetCount("threads");
  std::optional<FaultSpec> faults = FaultSpec::FromName(flags.GetString("faults"));
  if (!faults) {
    std::cerr << "unknown fault schedule '" << flags.GetString("faults")
              << "' (want " << preset_list << ")\n";
    return 1;
  }
  config.faults.spec = *faults;
  config.faults.fault_seed = static_cast<uint64_t>(flags.GetInt("fault_seed"));
  config.faults.degrade = flags.GetInt("degrade") != 0;
  bool cpu_family = flags.GetInt("cpu_family") != 0;

  std::ofstream trace_file;
  std::unique_ptr<TraceWriter> trace;
  if (!flags.GetString("trace").empty()) {
    trace_file.open(flags.GetString("trace"));
    if (!trace_file) {
      std::cerr << "cannot open trace file " << flags.GetString("trace") << "\n";
      return 1;
    }
    trace = std::make_unique<TraceWriter>(trace_file);
  }

  // Every flag is validated above, before the (possibly slow, first-run
  // training) workbench load.
  const Workbench& wb = Workbench::Get(device);
  const TrainedModels& models =
      cpu_family ? wb.cpu_family_models() : wb.models();
  ServeEval eval = ServeRunner::Run(models, spec, config, trace.get());
  const ServeResult& result = eval.result;

  if (trace != nullptr) {
    // Flush grouped by stream id, ascending: byte-identical at any --threads.
    std::vector<uint64_t> stream_order;
    stream_order.reserve(result.streams.size());
    for (const StreamOutcome& outcome : result.streams) {
      stream_order.push_back(outcome.stream_id);
    }
    trace->Flush(stream_order);
  }
  if (!flags.GetString("json").empty()) {
    std::ofstream json(flags.GetString("json"));
    if (!json) {
      std::cerr << "cannot open json file " << flags.GetString("json") << "\n";
      return 1;
    }
    json << ServeEvalJson(eval) << "\n";
  }

  std::cout << "device:           " << GetDeviceProfile(device).name << "\n"
            << "allocator:        " << AllocatorModeName(*mode) << "\n"
            << "streams:          " << result.streams.size() << " arrived, "
            << result.admitted << " admitted, " << result.rejected
            << " rejected\n"
            << "rounds:           " << result.rounds << " (peak concurrency "
            << result.peak_concurrency << ", peak queue " << result.peak_queue
            << ")\n"
            << "mean accuracy:    " << FmtDouble(result.mean_accuracy * 100.0, 2)
            << " % (per-stream mAP)\n"
            << "frames served:    " << result.total_frames << "\n"
            << "deadline misses:  " << result.total_misses << "\n";
  for (int c = 0; c < kNumSloClasses; ++c) {
    size_t cls = static_cast<size_t>(c);
    if (result.streams_by_class[cls] == 0) {
      continue;
    }
    double rate = result.gofs_by_class[cls] > 0
                      ? static_cast<double>(result.misses_by_class[cls]) /
                            static_cast<double>(result.gofs_by_class[cls])
                      : 0.0;
    std::cout << "  " << SloClassName(static_cast<SloClass>(c)) << ": "
              << result.streams_by_class[cls] << " streams, "
              << result.misses_by_class[cls] << "/" << result.gofs_by_class[cls]
              << " GoFs missed (" << FmtDouble(rate * 100.0, 2) << " %)\n";
  }
  if (result.faults_active) {
    std::cout << "faults:           " << flags.GetString("faults") << " (seed "
              << config.faults.fault_seed << ", degradation "
              << (config.faults.degrade ? "on" : "off") << ")\n"
              << "robustness:       " << result.faults_injected << " injected, "
              << result.faults_absorbed << " absorbed, "
              << result.degraded_frames << " degraded frames\n"
              << "pressure ladder:  " << result.coasted_rounds
              << " coasted rounds, " << result.renegotiations
              << " renegotiations, " << result.evictions << " evictions";
    if (result.evictions > 0) {
      std::cout << " (";
      bool first = true;
      for (int c = 0; c < kNumSloClasses; ++c) {
        size_t cls = static_cast<size_t>(c);
        if (result.evictions_by_class[cls] == 0) {
          continue;
        }
        if (!first) {
          std::cout << ", ";
        }
        first = false;
        std::cout << result.evictions_by_class[cls] << " "
                  << SloClassName(static_cast<SloClass>(c));
      }
      std::cout << ")";
    }
    std::cout << "\n";
  }
  if (trace != nullptr) {
    std::cout << "wrote " << trace->count() << " trace records to "
              << flags.GetString("trace") << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
