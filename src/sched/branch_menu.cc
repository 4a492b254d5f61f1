#include "src/sched/branch_menu.h"

#include <algorithm>

#include "src/sched/cost_table.h"
#include "src/sched/scheduler_session.h"

namespace litereconfig {

std::vector<BranchOption> BuildBranchMenu(const TrainedModels& models,
                                          const SchedulerConfig& config,
                                          const DecisionContext& ctx,
                                          const std::vector<double>& light,
                                          SchedulerSession* session) {
  // Price the menu at the full SLO: the budget cap is what the allocator is
  // about to compute from this menu.
  DecisionContext unbudgeted = ctx;
  unbudgeted.budget_ms = 0.0;
  SchedulerSession fresh;
  const DecisionCostTable& table = (session != nullptr ? session : &fresh)
                                       ->TableFor(models, config, unbudgeted, light);
  double s0 =
      models.FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);

  std::vector<BranchOption> feasible;
  feasible.reserve(table.size());
  for (size_t b = 0; b < table.size(); ++b) {
    double frame_ms = table.CostMs(b, s0);
    if (frame_ms > table.slo_limit_ms()) {
      continue;
    }
    feasible.push_back({b, frame_ms, models.mean_branch_accuracy[b]});
  }
  // Ascending cost; equal costs tie-break on branch index so the menu is a
  // pure function of the context.
  std::sort(feasible.begin(), feasible.end(),
            [](const BranchOption& a, const BranchOption& b) {
              if (a.frame_ms != b.frame_ms) {
                return a.frame_ms < b.frame_ms;
              }
              return a.branch < b.branch;
            });
  // Pareto reduction: keep an option only if it strictly improves accuracy
  // over everything cheaper.
  std::vector<BranchOption> menu;
  double best_accuracy = -1.0;
  for (const BranchOption& option : feasible) {
    if (menu.empty() || option.accuracy > best_accuracy) {
      menu.push_back(option);
      best_accuracy = option.accuracy;
    }
  }
  return menu;
}

}  // namespace litereconfig
