// The allocation menu: the Pareto frontier of (per-frame cost, mean accuracy)
// over the branch space for one stream's current decision context.
//
// The global cost-benefit allocator (src/serve/allocator.h) splits the GPU
// budget across streams by marginal accuracy per millisecond; this is the
// curve it trades along. Costs come from the same DecisionCostTable the
// scheduler decides with — branch latency under the stream's calibration,
// switch cost from its current branch, light-feature scheduler cost — so a
// budget granted off the menu is a budget the scheduler can actually spend.
// Accuracy is the dataset-mean per-branch accuracy (the content-agnostic
// view): the allocator runs before features are extracted, so it prices
// streams on priors and leaves content-aware refinement to each stream's own
// scheduler within its granted budget.
#ifndef SRC_SCHED_BRANCH_MENU_H_
#define SRC_SCHED_BRANCH_MENU_H_

#include <cstddef>
#include <vector>

#include "src/sched/scheduler.h"

namespace litereconfig {

struct BranchOption {
  size_t branch = 0;
  // Amortized per-frame cost (branch + amortized scheduler/switch overhead)
  // under the context's calibration, comparable to the scheduler's constraint.
  double frame_ms = 0.0;
  // Dataset-mean accuracy of the branch.
  double accuracy = 0.0;
};

// Builds the menu for one stream: every SLO-feasible branch priced by the
// DecisionCostTable, reduced to the Pareto frontier (ascending cost, strictly
// increasing accuracy). The first entry is the cheapest feasible option.
// Empty when no branch fits the margin-adjusted SLO (ctx.budget_ms is ignored
// here: the menu is an input to budget assignment, not an output of it).
//
// The table comes from `session` (the stream's own; see
// src/sched/scheduler_session.h), so the round's Decide through the same
// session reuses its columns. With nullptr a fresh session prices every
// column. Menus are bit-identical either way.
std::vector<BranchOption> BuildBranchMenu(const TrainedModels& models,
                                          const SchedulerConfig& config,
                                          const DecisionContext& ctx,
                                          const std::vector<double>& light,
                                          SchedulerSession* session = nullptr);

}  // namespace litereconfig

#endif  // SRC_SCHED_BRANCH_MENU_H_
