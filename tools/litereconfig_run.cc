// Command-line runner: the C++ analogue of the artifact's
// `python LiteReconfig.py --gl <contention> --lat_req <slo> --mobile_device=<dev>`
// entry point. Runs one protocol over a synthetic validation set and prints the
// evaluation summary; optionally writes per-GoF samples as CSV and the full
// decision trace as JSON lines.
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/baselines/approxdet.h"
#include "src/baselines/knob_protocols.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/workbench.h"
#include "src/util/flags.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace litereconfig {
namespace {

int Run(int argc, char** argv) {
  FlagSet flags(
      "litereconfig_run — run a video object detection protocol under a device/"
      "contention/SLO configuration and report mAP and latency.");
  flags.Define("device", "tx2", "target device: tx2 | xavier");
  flags.Define("lat_req", "33.3", "latency objective per frame, ms");
  flags.Define("gl", "0", "GPU contention level in percent (0-99)");
  flags.Define("protocol", "litereconfig",
               "litereconfig | mincost | maxcontent-resnet | maxcontent-mobilenet"
               " | approxdet | ssd | yolo");
  flags.Define("videos", "0",
               "validation videos to run (0 = the full default validation set)");
  flags.Define("run_salt", "1", "seed distinguishing independent online runs");
  flags.Define("threads", "0",
               "worker threads for the per-video fan-out (0 = all cores); "
               "results (traces included) are identical for every value");
  flags.Define("csv", "", "write per-GoF amortized latency samples to this CSV");
  flags.Define("trace", "",
               "write the decision trace (JSONL) here; LiteReconfig variants only");
  std::string preset_list = FaultPresetList();
  flags.Define("faults", "none", "fault-injection schedule: " + preset_list);
  flags.Define("fault_seed", "1",
               "seed for the deterministic fault streams (per-video substreams)");
  flags.Define("degrade", "1",
               "1 = graceful degradation (watchdog, bounded retry, coast mode, "
               "cheapest-branch fallback); 0 = naive blocking retries");
  flags.Define("predictive", "0",
               "1 = predictive robustness (contention forecasting, headroom-"
               "first planning under burst pressure, pre-emptive re-plans, "
               "drift-triggered recalibration); requires --degrade=1");
  flags.Define("cpu_family", "0",
               "1 = extend the branch space with the CPU-only detector family "
               "(the scheduler's demotion target during gpu_denied intervals); "
               "LiteReconfig variants only");
  flags.Define("json", "", "write the full evaluation result as one-line JSON here");
  if (!flags.Parse(argc, argv)) {
    flags.PrintHelp(flags.help_requested() ? std::cout : std::cerr);
    return flags.help_requested() ? 0 : 1;
  }

  // Every flag is validated before the (possibly slow, first-run training)
  // workbench load, so a bad value fails fast.
  DeviceType device = flags.GetChoice("device", {"tx2", "xavier"}) == "xavier"
                          ? DeviceType::kXavier
                          : DeviceType::kTx2;
  double slo = flags.GetPositive("lat_req");
  double contention = flags.GetDoubleIn("gl", 0.0, 99.0) / 100.0;
  int max_videos = flags.GetCount("videos");
  bool cpu_family = flags.GetInt("cpu_family") != 0;
  std::string name = flags.GetString("protocol");
  bool lrc_variant = name == "litereconfig" || name == "mincost" ||
                     name == "maxcontent-resnet" || name == "maxcontent-mobilenet";
  bool baseline = name == "approxdet" || name == "ssd" || name == "yolo";
  if (!lrc_variant && !baseline) {
    std::cerr << "unknown protocol '" << name << "'\n";
    flags.PrintHelp(std::cerr);
    return 1;
  }
  // The baselines write no decision trace and run a fixed branch space, so
  // they would silently ignore these flags.
  const char* lrc_only = !flags.GetString("trace").empty() ? "trace"
                         : cpu_family                      ? "cpu_family"
                                                           : nullptr;
  if (baseline && lrc_only != nullptr) {
    std::cerr << "error: --" << lrc_only
              << " applies to LiteReconfig variants only, not --protocol=" << name
              << "\n";
    return 2;
  }
  EvalConfig config;
  config.device = device;
  config.gpu_contention = contention;
  config.slo_ms = slo;
  config.run_salt = static_cast<uint64_t>(flags.GetInt("run_salt"));
  config.threads = flags.GetCount("threads");
  std::optional<FaultSpec> faults = FaultSpec::FromName(flags.GetString("faults"));
  if (!faults) {
    std::cerr << "unknown fault schedule '" << flags.GetString("faults")
              << "' (want " << preset_list << ")\n";
    return 1;
  }
  config.faults = *faults;
  config.fault_seed = static_cast<uint64_t>(flags.GetInt("fault_seed"));
  config.degrade = flags.GetInt("degrade") != 0;
  config.predictive = flags.GetInt("predictive") != 0;

  const Workbench& wb = Workbench::Get(device);
  Dataset validation = wb.validation();
  if (max_videos > 0 && static_cast<size_t>(max_videos) < validation.videos.size()) {
    validation.videos.resize(static_cast<size_t>(max_videos));
  }

  std::ofstream trace_file;
  std::unique_ptr<TraceWriter> trace;
  std::unique_ptr<Protocol> protocol;
  if (lrc_variant) {
    SchedulerConfig scheduler = LiteReconfigProtocol::FullConfig();
    if (name == "mincost") {
      scheduler = LiteReconfigProtocol::MinCostConfig();
    } else if (name == "maxcontent-resnet") {
      scheduler = LiteReconfigProtocol::MaxContentConfig(FeatureKind::kResNet50);
    } else if (name == "maxcontent-mobilenet") {
      scheduler = LiteReconfigProtocol::MaxContentConfig(FeatureKind::kMobileNetV2);
    }
    const TrainedModels& models =
        cpu_family ? wb.cpu_family_models() : wb.models();
    auto lrc = std::make_unique<LiteReconfigProtocol>(&models, scheduler, name);
    if (!flags.GetString("trace").empty()) {
      trace_file.open(flags.GetString("trace"));
      if (!trace_file) {
        std::cerr << "cannot open trace file " << flags.GetString("trace") << "\n";
        return 1;
      }
      trace = std::make_unique<TraceWriter>(trace_file);
      lrc->set_trace_writer(trace.get());
    }
    protocol = std::move(lrc);
  } else if (name == "approxdet") {
    protocol = std::make_unique<ApproxDetProtocol>(&wb.models());
  } else {
    LatencyModel profile(device, 0.0);
    protocol = std::make_unique<StaticKnobProtocol>(
        name == "ssd" ? BaselineFamily::kSsd : BaselineFamily::kYolo,
        name == "ssd" ? "SSD+" : "YOLO+", wb.train(), profile, slo);
  }
  EvalResult result = OnlineRunner::Run(*protocol, validation, config);

  if (trace != nullptr) {
    // Flush buffered trace records in dataset video order, making the trace
    // byte-identical at any --threads value.
    std::vector<uint64_t> video_order;
    video_order.reserve(validation.videos.size());
    for (const SyntheticVideo& video : validation.videos) {
      video_order.push_back(video.spec().seed);
    }
    trace->Flush(video_order);
  }
  if (!flags.GetString("json").empty()) {
    std::ofstream json(flags.GetString("json"));
    if (!json) {
      std::cerr << "cannot open json file " << flags.GetString("json") << "\n";
      return 1;
    }
    json << EvalResultJson(result) << "\n";
  }
  if (result.oom) {
    std::cout << "result: OOM (protocol does not fit on this device)\n";
    return 0;
  }
  std::cout << "protocol:        " << protocol->name() << "\n"
            << "device:          " << GetDeviceProfile(device).name << "\n"
            << "SLO:             " << FmtDouble(slo, 1) << " ms, contention "
            << FmtDouble(contention * 100, 0) << "%\n"
            << "frames:          " << result.frames << "\n"
            << "mAP:             " << FmtDouble(result.map * 100.0, 2) << " %\n"
            << "latency mean:    " << FmtDouble(result.mean_ms, 2) << " ms\n"
            << "latency P95:     " << FmtDouble(result.p95_ms, 2) << " ms ("
            << (result.MeetsSlo(slo) ? "meets SLO" : "VIOLATES SLO") << ")\n"
            << "violation rate:  " << FmtDouble(result.violation_rate * 100.0, 2)
            << " %\n"
            << "branch coverage: " << result.branch_coverage << " ("
            << result.switch_count << " switches)\n"
            << "time split:      detector " << FmtDouble(result.detector_frac * 100, 1)
            << "%, tracker " << FmtDouble(result.tracker_frac * 100, 1)
            << "%, scheduler " << FmtDouble(result.scheduler_frac * 100, 1)
            << "%, switching " << FmtDouble(result.switch_frac * 100, 1) << "%\n";
  if (config.faults.Any()) {
    std::cout << "faults:          " << flags.GetString("faults") << " (seed "
              << config.fault_seed << ", degradation "
              << (config.degrade ? "on" : "off") << ")\n"
              << "robustness:      " << result.faults_injected << " injected, "
              << result.faults_absorbed << " absorbed, "
              << result.deadline_misses << " deadline misses, "
              << result.degraded_frames << " degraded frames, mean recovery "
              << FmtDouble(result.mean_recovery_gofs, 2) << " GoFs\n";
    if (config.predictive) {
      std::cout << "predictive:      " << result.recalibrations
                << " recalibrations, " << result.reanchors << " re-anchors, "
                << result.preemptive_replans << " pre-emptive re-plans, "
                << result.forecast_absorbed << " faults absorbed under a "
                << "forecast plan\n";
    }
  }

  if (!flags.GetString("csv").empty()) {
    std::ofstream csv(flags.GetString("csv"));
    if (!csv) {
      std::cerr << "cannot open csv file " << flags.GetString("csv") << "\n";
      return 1;
    }
    csv << "gof_index,frame_ms\n";
    for (size_t i = 0; i < result.gof_frame_ms.size(); ++i) {
      csv << i << "," << FmtDouble(result.gof_frame_ms[i], 4) << "\n";
    }
    std::cout << "wrote " << result.gof_frame_ms.size() << " samples to "
              << flags.GetString("csv") << "\n";
  }
  if (trace != nullptr) {
    std::cout << "wrote " << trace->count() << " decision records to "
              << flags.GetString("trace") << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
