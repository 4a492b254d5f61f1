// Serving prices each round twice per stream: the allocation menu
// (BuildBranchMenu, at the unbudgeted context) and the decision (Decide, at
// the granted budget). Both go through the stream's one SchedulerSession, so
// the decision reuses the table columns its menu just built. The contract:
// across serving-shaped rounds every menu equals the session-free menu and
// every decision equals the session-free fast path and DecideReference, field
// for field, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/sched/branch_menu.h"
#include "src/sched/scheduler.h"
#include "src/sched/scheduler_session.h"
#include "src/serve/arrivals.h"
#include "src/serve/stream_session.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

void ExpectSameMenu(const std::vector<BranchOption>& via_session,
                    const std::vector<BranchOption>& fresh, int label) {
  ASSERT_EQ(via_session.size(), fresh.size()) << "round " << label;
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(via_session[i].branch, fresh[i].branch) << "round " << label;
    EXPECT_EQ(via_session[i].frame_ms, fresh[i].frame_ms) << "round " << label;
    EXPECT_EQ(via_session[i].accuracy, fresh[i].accuracy) << "round " << label;
  }
}

// Rounds of one stream, shaped like StreamingService's: the menu (and, for a
// pressure-ladder demotee, a second menu with the GPU masked), then either a
// decision at a budget the menu did not see, or a forced or coasted round
// that skips Decide. The stream then switches to the chosen branch and
// advances one GoF, so later rounds hit the stream-tail GoF clamp.
TEST(StreamSchedulerSessionTest, MenuAndDecisionThroughOneSessionMatchFresh) {
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0x5e7eull, 0x55ull}));

  int decisions = 0;
  int skipped_rounds = 0;
  int demotee_menus = 0;
  int gpu_flips = 0;
  int tail_rounds = 0;
  int switches = 0;
  for (int trial = 0; trial < 40; ++trial) {
    // Even trials carry the CPU family: denials and demotions leave a
    // schedulable GPU-free branch set.
    const bool cpu_family = trial % 2 == 0;
    const TrainedModels& models = cpu_family ? TinyCpuFamilyModels() : TinyModels();
    const BranchSpace& space = *models.space;
    int max_gof = 0;
    for (const Branch& branch : space.branches()) {
      max_gof = std::max(max_gof, branch.gof);
    }

    SchedulerConfig config;
    config.mode = trial % 4 == 3 ? LiteReconfigMode::kMinCost : LiteReconfigMode::kFull;
    config.charge_feature_overhead = rng.NextU32() % 2 == 0;
    config.use_switching_cost = rng.NextU32() % 4 != 0;
    config.use_hysteresis = rng.NextU32() % 2 == 0;
    LiteReconfigScheduler scheduler(&models, config);
    // The stream's one session, shared by every menu and decision below.
    SchedulerSession session;

    const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
    const double slo_ms = 20.0 + rng.NextDouble() * 80.0;
    DetectionList anchor =
        ExecutionKernel::DetectAnchor(video, 0, space.at(0), trial);
    std::optional<size_t> current;
    int t = 0;
    for (int round = 0; t < video.frame_count(); ++round) {
      const int label = trial * 1000 + round;
      // The frozen round snapshot: contention, thermal drift, availability.
      const double thermal = rng.NextU32() % 3 == 0 ? 1.0 + 0.5 * rng.NextDouble() : 1.0;
      DecisionContext ctx;
      ctx.video = &video;
      ctx.frame = t;
      ctx.anchor_detections = &anchor;
      ctx.current_branch = current;
      ctx.slo_ms = slo_ms;
      ctx.frames_remaining = video.frame_count() - t;
      ctx.gpu_cal = (1.0 + 2.0 * rng.NextDouble()) * thermal;
      ctx.cpu_cal = thermal;
      ctx.gpu_available = rng.NextU32() % 5 != 0;
      if (ctx.frames_remaining < max_gof) {
        ++tail_rounds;
      }
      const std::vector<double> light =
          ComputeLightFeatures(video.spec().width, video.spec().height, anchor);

      ExpectSameMenu(BuildBranchMenu(models, config, ctx, light, &session),
                     BuildBranchMenu(models, config, ctx, light), label);
      if (cpu_family && ctx.gpu_available && rng.NextU32() % 4 == 0) {
        // A pressure-ladder demotee: its menu is recomputed in the same round
        // with the GPU masked.
        ctx.gpu_available = false;
        ExpectSameMenu(BuildBranchMenu(models, config, ctx, light, &session),
                       BuildBranchMenu(models, config, ctx, light), label);
        ++demotee_menus;
      }
      const bool menu_gpu = ctx.gpu_available;

      size_t branch = 0;
      const uint32_t kind = rng.NextU32() % 8;
      if (kind == 0 && current.has_value()) {
        // Coasted round: tracker-only on the current branch, no Decide.
        branch = *current;
        ++skipped_rounds;
      } else if (kind == 1) {
        // Forced round: the watchdog pins a branch the scheduler did not
        // choose, no Decide.
        branch = rng.NextU32() % space.size();
        ++skipped_rounds;
      } else {
        // The allocator's grant arrives between menu and decision.
        switch (rng.NextU32() % 3) {
          case 0:
            ctx.budget_ms = 0.0;
            break;
          case 1:
            ctx.budget_ms = slo_ms * (0.3 + 0.8 * rng.NextDouble());
            break;
          default:
            ctx.budget_ms = 2.0 + 20.0 * rng.NextDouble();
            break;
        }
        // The step can mask the GPU differently from the menu (a denied
        // round with no CPU family decides unmasked).
        if (rng.NextU32() % 6 == 0) {
          ctx.gpu_available = !ctx.gpu_available;
          ++gpu_flips;
        }
        const SchedulerSession::Counters before = session.counters();
        SchedulerDecision via_session = scheduler.Decide(ctx, &session);
        ExpectIdenticalDecisions(via_session, scheduler.Decide(ctx), label);
        ExpectIdenticalDecisions(via_session, scheduler.DecideReference(ctx), label);
        // Same round, same current branch: the decision reuses the switch-cost
        // row its menu just built, and the latency column exactly when the two
        // mask the GPU alike.
        EXPECT_EQ(session.counters().switch_row_reuses, before.switch_row_reuses + 1)
            << "round " << label;
        EXPECT_EQ(session.counters().latency_column_reuses,
                  before.latency_column_reuses + (ctx.gpu_available == menu_gpu ? 1 : 0))
            << "round " << label;
        branch = via_session.branch_index;
        ++decisions;
      }

      if (current.has_value() && *current != branch) {
        ++switches;
      }
      current = branch;
      t += std::max(std::min(space.at(branch).gof, video.frame_count() - t), 1);
      if (t < video.frame_count()) {
        anchor = ExecutionKernel::DetectAnchor(video, t, space.at(branch), trial);
      }
    }
  }
  // Every case the contract names must actually have been exercised.
  EXPECT_GT(decisions, 0);
  EXPECT_GT(skipped_rounds, 0);
  EXPECT_GT(demotee_menus, 0);
  EXPECT_GT(gpu_flips, 0);
  EXPECT_GT(tail_rounds, 0);
  EXPECT_GT(switches, 0);
}

constexpr int kStreams = 6;
constexpr int kRounds = 16;

// Every menu and GoF report of a few served streams, written with exact
// (hexfloat) doubles: menus priced serially, steps fanned out over `threads`
// workers, as StreamingService runs a round. `steps` counts the reports that
// ran frames.
std::string ServeTranscript(int threads, int* steps) {
  const TrainedModels& models = TinyCpuFamilyModels();
  ArrivalSpec spec;
  spec.seed = 11;
  spec.num_streams = kStreams;
  spec.frames_per_video = 900;
  SwitchingCostModel switching(models.device);
  std::vector<std::unique_ptr<StreamSession>> sessions;
  for (const StreamRequest& request : GenerateArrivals(spec)) {
    sessions.push_back(std::make_unique<StreamSession>(
        &models, SchedulerConfig{}, request, &switching, /*service_salt=*/1));
  }
  const size_t n = sessions.size();
  Pcg32 rng(HashKeys({0x7ea5ull, 0x11ull}));
  std::ostringstream out;
  out << std::hexfloat;
  for (int round = 0; round < kRounds; ++round) {
    const double level = 0.6 * rng.NextDouble();
    const double thermal = round % 5 == 4 ? 1.2 : 1.0;
    const bool gpu_available = round % 7 != 6;
    std::vector<double> budgets(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      std::vector<BranchOption> menu = sessions[i]->Menu(level, thermal, gpu_available);
      if (!menu.empty()) {
        // Alternate a tight and a middling grant so branches switch.
        budgets[i] = menu[round % 2 == 0 ? 0 : menu.size() / 2].frame_ms;
      }
      for (const BranchOption& option : menu) {
        out << option.branch << ' ' << option.frame_ms << ' ' << option.accuracy << ';';
      }
      out << '\n';
    }
    std::vector<GofReport> reports(n);
    ThreadPool::Shared().ParallelFor(
        n,
        [&](size_t i) {
          StepConditions conditions;
          conditions.level = level;
          conditions.budget_ms = budgets[i];
          conditions.thermal_scale = thermal;
          conditions.gpu_available = gpu_available;
          reports[i] = sessions[i]->StepGof(conditions);
        },
        threads);
    for (const GofReport& r : reports) {
      *steps += r.gof_length > 0 ? 1 : 0;
      out << r.done << ' ' << r.frame << ' ' << r.branch << ' ' << r.gof_length
          << ' ' << r.frame_ms << ' ' << r.scheduler_ms << ' ' << r.switch_ms
          << ' ' << r.predicted_accuracy << ' ' << r.predicted_frame_ms << ' '
          << r.switched << r.infeasible << r.missed << r.forced << r.tail
          << r.coasted << r.cpu_fallback << ' ' << r.gpu_share << '\n';
    }
  }
  return out.str();
}

TEST(StreamSchedulerSessionTest, SessionsSteppedInParallelMatchSerial) {
  int serial_steps = 0;
  int parallel_steps = 0;
  const std::string serial = ServeTranscript(1, &serial_steps);
  EXPECT_EQ(ServeTranscript(4, &parallel_steps), serial);
  // Most rounds step live streams, not finished ones.
  EXPECT_GT(serial_steps, kStreams * kRounds / 2);
}

}  // namespace
}  // namespace litereconfig
