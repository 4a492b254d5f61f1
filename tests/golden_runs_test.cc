// Golden-output pins for the GoF execution paths. Each case runs a small fixed
// evaluation on the tiny model bundle and pins the FNV-1a digest of its output
// bytes: EvalResultJson for the single-tenant protocols (LiteReconfig,
// MinCost, ApproxDet, SSD+) under no faults, the severe preset and severe
// with predictive robustness; the LiteReconfig decision trace; and
// ServeEvalJson for a small arrival trace. Every case runs at 1 and 4 threads
// against the same pin, so a pin also checks thread-count identity.
//
// A digest change means an output byte changed: a refactor of the GoF
// execution path must leave every pin as it is. Suite names carry GoldenRuns
// so the TSan CI job picks them up.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/baselines/approxdet.h"
#include "src/baselines/knob_protocols.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/trace.h"
#include "src/serve/serve_runner.h"
#include "src/util/strings.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

constexpr int kThreadCounts[] = {1, 4};
// Fault seeds chosen so the pins reach the fault paths on TinyValidation:
// under severe, seed 8 makes every protocol coast some frames and seed 10
// makes predictive LiteReconfig recalibrate; under denied_moderate, seed 1
// both demotes to the CPU family and coasts.
constexpr uint64_t kSevereSeed = 8;
constexpr uint64_t kPredictiveSeed = 10;
constexpr uint64_t kDeniedSeed = 1;

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(digest));
}

std::unique_ptr<Protocol> MakeProtocol(std::string_view name, double slo_ms,
                                       const TrainedModels& models) {
  if (name == "litereconfig") {
    return std::make_unique<LiteReconfigProtocol>(
        &models, LiteReconfigProtocol::FullConfig(), "litereconfig");
  }
  if (name == "mincost") {
    return std::make_unique<LiteReconfigProtocol>(
        &models, LiteReconfigProtocol::MinCostConfig(), "mincost");
  }
  if (name == "approxdet") {
    return std::make_unique<ApproxDetProtocol>(&models);
  }
  LatencyModel profile(DeviceType::kTx2, 0.0);
  return std::make_unique<StaticKnobProtocol>(BaselineFamily::kSsd, "SSD+",
                                              TinyTrain(), profile, slo_ms,
                                              /*max_profile_snippets=*/6);
}

struct RunCase {
  const char* label;
  const char* protocol;
  double slo_ms;
  const char* faults;
  uint64_t fault_seed;
  bool predictive;
  uint64_t digest;
};

void PrintTo(const RunCase& run, std::ostream* os) { *os << run.label; }

EvalConfig MakeConfig(const RunCase& run, int threads) {
  EvalConfig config;
  config.slo_ms = run.slo_ms;
  config.threads = threads;
  config.faults = *FaultSpec::FromName(run.faults);
  config.fault_seed = run.fault_seed;
  config.degrade = true;
  config.predictive = run.predictive;
  return config;
}

const RunCase kRunCases[] = {
    {"litereconfig_none", "litereconfig", 33.3, "none",
     1, false, 0x308c4feebace0768ull},
    {"litereconfig_severe", "litereconfig", 33.3, "severe",
     kSevereSeed, false, 0xe4de39b9ac7603f8ull},
    {"litereconfig_severe_predictive", "litereconfig", 33.3, "severe",
     kPredictiveSeed, true, 0x69151ecb1557e4c6ull},
    {"mincost_none", "mincost", 33.3, "none",
     1, false, 0x47a43e5bf7063f6bull},
    {"mincost_severe", "mincost", 33.3, "severe",
     kSevereSeed, false, 0x969d7b6656e1fa45ull},
    {"mincost_severe_predictive", "mincost", 33.3, "severe",
     kPredictiveSeed, true, 0xe4c523cd5e5fb88full},
    // ApproxDet's per-frame overhead makes 33.3 ms infeasible (cheapest
    // branch plus tail continuations); 100 ms exercises real choices.
    {"approxdet_none", "approxdet", 33.3, "none",
     1, false, 0x67f53a6ec24ff460ull},
    {"approxdet_severe", "approxdet", 33.3, "severe",
     kSevereSeed, false, 0x4a97061780f5b6d4ull},
    {"approxdet_severe_predictive", "approxdet", 33.3, "severe",
     kPredictiveSeed, true, 0x93518e593df44cc3ull},
    {"approxdet100_none", "approxdet", 100.0, "none",
     1, false, 0x9fef09d4fb85fe5full},
    {"approxdet100_severe", "approxdet", 100.0, "severe",
     kSevereSeed, false, 0xf3a4e941d9b76ccfull},
    {"approxdet100_severe_predictive", "approxdet", 100.0, "severe",
     kPredictiveSeed, true, 0xaa1ae6efd933fe06ull},
    {"ssd_none", "ssd", 33.3, "none",
     1, false, 0x69f624c3d4084bd5ull},
    {"ssd_severe", "ssd", 33.3, "severe",
     kSevereSeed, false, 0xff28043c59f5d00aull},
    {"ssd_severe_predictive", "ssd", 33.3, "severe",
     kPredictiveSeed, true, 0x4e2f7c73eeb14f62ull},
};

class GoldenRunsTest : public ::testing::TestWithParam<RunCase> {};

TEST_P(GoldenRunsTest, EvalResultJsonMatchesPin) {
  const RunCase& run = GetParam();
  std::unique_ptr<Protocol> protocol =
      MakeProtocol(run.protocol, run.slo_ms, TinyModels());
  for (int threads : kThreadCounts) {
    EvalResult result =
        OnlineRunner::Run(*protocol, TinyValidation(), MakeConfig(run, threads));
    EXPECT_EQ(Hex(Fnv1a(EvalResultJson(result))), Hex(run.digest))
        << run.label << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, GoldenRunsTest, ::testing::ValuesIn(kRunCases),
    [](const ::testing::TestParamInfo<RunCase>& param) {
      return std::string(param.param.label);
    });

TEST(GoldenRunsPinTest, SsdPinRunsATrackerSetting) {
  // The SSD+ pins cover the coast path only if the chosen knob has a tracker.
  LatencyModel profile(DeviceType::kTx2, 0.0);
  StaticKnobProtocol ssd(BaselineFamily::kSsd, "SSD+", TinyTrain(), profile,
                         33.3, /*max_profile_snippets=*/6);
  EXPECT_TRUE(ssd.chosen_setting().has_tracker);
}

TEST(GoldenRunsPinTest, SevereRunsDegrade) {
  // The severe pins exercise the fault paths: every protocol coasts or
  // degrades some frames.
  for (const char* name : {"litereconfig", "mincost", "approxdet", "ssd"}) {
    std::unique_ptr<Protocol> protocol = MakeProtocol(name, 33.3, TinyModels());
    RunCase run{"", name, 33.3, "severe", kSevereSeed, false, 0};
    EvalResult result =
        OnlineRunner::Run(*protocol, TinyValidation(), MakeConfig(run, 1));
    EXPECT_GT(result.faults_injected, 0) << name;
    EXPECT_GT(result.degraded_frames, 0) << name;
  }
}

TEST(GoldenRunsPinTest, LiteReconfigCpuFamilyDeniedModerate) {
  constexpr uint64_t kDigest = 0x80a0b9d8b5b1acc4ull;
  std::unique_ptr<Protocol> protocol =
      MakeProtocol("litereconfig", 33.3, TinyCpuFamilyModels());
  RunCase run{"", "litereconfig", 33.3, "denied_moderate", kDeniedSeed, false, 0};
  for (int threads : kThreadCounts) {
    EvalResult result = OnlineRunner::Run(
        *protocol, TinyValidation(), MakeConfig(run, threads));
    EXPECT_GT(result.cpu_fallback_gofs, 0);
    EXPECT_GT(result.degraded_frames, 0);
    EXPECT_EQ(Hex(Fnv1a(EvalResultJson(result))), Hex(kDigest))
        << "threads=" << threads;
  }
}

TEST(GoldenRunsPinTest, LiteReconfigSevereTraceBytes) {
  constexpr uint64_t kDigest = 0x8c29621e451f9092ull;
  std::vector<uint64_t> video_order;
  for (const SyntheticVideo& video : TinyValidation().videos) {
    video_order.push_back(video.spec().seed);
  }
  RunCase run{"", "litereconfig", 33.3, "severe", kSevereSeed, false, 0};
  for (int threads : kThreadCounts) {
    LiteReconfigProtocol protocol(&TinyModels(),
                                  LiteReconfigProtocol::FullConfig(),
                                  "litereconfig");
    std::ostringstream bytes;
    {
      TraceWriter trace(bytes);
      protocol.set_trace_writer(&trace);
      OnlineRunner::Run(protocol, TinyValidation(), MakeConfig(run, threads));
      trace.Flush(video_order);
    }
    EXPECT_FALSE(bytes.str().empty());
    EXPECT_EQ(Hex(Fnv1a(bytes.str())), Hex(kDigest)) << "threads=" << threads;
  }
}

TEST(GoldenRunsPinTest, LiteReconfigSevereReferenceExecutor) {
  // The pipeline=false reference executor must land on the same bytes as the
  // batched plan under faults (tail, coast and denial paths included).
  constexpr uint64_t kDigest = 0xe4de39b9ac7603f8ull;
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "litereconfig");
  RunCase run{"", "litereconfig", 33.3, "severe", kSevereSeed, false, 0};
  for (int threads : kThreadCounts) {
    EvalConfig config = MakeConfig(run, threads);
    config.pipeline = false;
    EvalResult result = OnlineRunner::Run(protocol, TinyValidation(), config);
    EXPECT_EQ(Hex(Fnv1a(EvalResultJson(result))), Hex(kDigest))
        << "threads=" << threads;
  }
}

// An arrival storm tight enough that, at fault seed 4, the severe preset
// engages the pressure ladder's coasting and gpu_denied both demotes to the
// CPU family and (without one) coasts.
ArrivalSpec GoldenServeSpec() {
  ArrivalSpec spec;
  spec.seed = 1;
  spec.num_streams = 10;
  spec.frames_per_video = 120;
  spec.slo_ms = 25.0;
  spec.mean_interarrival_rounds = 0.25;
  spec.width = 640;
  spec.height = 360;
  return spec;
}

// Runs the serve case at every thread count, checks the pin, and returns the
// threads=1 result for the caller's coverage checks.
ServeResult ExpectServePin(const char* faults, bool cpu_family,
                           uint64_t digest) {
  const TrainedModels& models = cpu_family ? TinyCpuFamilyModels() : TinyModels();
  ServeResult first;
  for (int threads : kThreadCounts) {
    ServeConfig config;
    config.threads = threads;
    config.faults.spec = *FaultSpec::FromName(faults);
    config.faults.fault_seed = 4;
    config.faults.degrade = true;
    ServeEval eval = ServeRunner::Run(models, GoldenServeSpec(), config);
    EXPECT_GT(eval.result.total_frames, 0u);
    EXPECT_EQ(Hex(Fnv1a(ServeEvalJson(eval))), Hex(digest))
        << faults << " threads=" << threads;
    if (threads == kThreadCounts[0]) {
      first = eval.result;
    }
  }
  return first;
}

TEST(GoldenRunsServeTest, NoFaults) {
  ExpectServePin("none", false, 0x01269d93985b75daull);
}

TEST(GoldenRunsServeTest, Severe) {
  ServeResult result = ExpectServePin("severe", false, 0x8581732c6a2ae2b1ull);
  EXPECT_GT(result.coasted_rounds, 0);
  EXPECT_GT(result.degraded_frames, 0);
}

TEST(GoldenRunsServeTest, GpuDeniedCpuFamily) {
  ServeResult result = ExpectServePin("gpu_denied", true, 0x7fce9a9a89584b62ull);
  EXPECT_GT(result.cpu_fallback_gofs, 0);
}

TEST(GoldenRunsServeTest, GpuDeniedWithoutCpuFamilyCoasts) {
  ServeResult result = ExpectServePin("gpu_denied", false, 0xe706f3248db01bb4ull);
  EXPECT_GT(result.denied_rounds, 0);
  EXPECT_GT(result.degraded_frames, 0);
}

}  // namespace
}  // namespace litereconfig
