// Cross-decision reuse state for one video stream — the batched scheduler.
//
// Within one stream, consecutive GoF decisions share some of their inputs:
// hysteresis keeps the current branch stable for long runs of GoFs, and the
// frames-remaining cap only bites in the stream tail. A SchedulerSession
// keeps the session's DecisionCostTable and rebuilds it in place every
// decision, reusing the two columns whose own inputs did not change:
//
//   * the offline switch-cost row     — keyed on the current branch (the
//     dominant DecisionCostTable::Build cost: one SwitchingCostModel::
//     OfflineCostMs, i.e. four pow() calls, per branch);
//   * the effective-GoF denominators  — keyed on the frames-remaining clamp.
//
// Everything else (the latency-predictor column, the SLO limit) is recomputed
// every decision: the GPU/CPU calibration drifts by at least one ulp per GoF,
// so a whole-table or whole-decision cache keyed on it never hits.
//
// Bit-exactness: every reused value is the exact double the fresh computation
// would produce — the columns are pure functions of their keys — so decisions
// taken through a session are bit-identical to fresh ones and to
// DecideReference (property-tested in tests/sched_fastpath_test.cc).
//
// Threading: a session is a per-stream local (one per RunVideo call), never
// shared across threads; the parallel runner's determinism contract keeps all
// mutable scheduler state out of the shared Protocol/Scheduler instances.
#ifndef SRC_SCHED_SCHEDULER_SESSION_H_
#define SRC_SCHED_SCHEDULER_SESSION_H_

#include <cstddef>
#include <vector>

#include "src/sched/cost_table.h"
#include "src/sched/scheduler.h"

namespace litereconfig {

class SchedulerSession {
 public:
  // Reuse accounting, surfaced per-run through PhaseProfile.
  struct Counters {
    long decisions = 0;         // session-routed scheduler invocations
    long decision_reuses = 0;   // always 0: decisions are never replayed
    long table_reuses = 0;      // always 0: every decision rebuilds its table
    long table_builds = 0;      // cost tables rebuilt in place (one per decision)
    long switch_row_reuses = 0; // switch-cost rows reused across rebuilds
  };

  const Counters& counters() const { return counters_; }

 private:
  friend class LiteReconfigScheduler;

  // Rebuilds the session's DecisionCostTable in place for `ctx`, reusing the
  // switch-cost row and effective-GoF columns whose own inputs still match
  // (resetting both when the branch space changes). The reference stays valid
  // until the next TableFor call.
  const DecisionCostTable& TableFor(const TrainedModels& models,
                                    const SchedulerConfig& config,
                                    const DecisionContext& ctx,
                                    const std::vector<double>& light);

  const BranchSpace* space_ = nullptr;
  int max_gof_ = 0;

  // Switch-cost row cache (keyed on whether switching is charged and from
  // which branch).
  bool switch_row_valid_ = false;
  bool switch_row_charged_ = false;
  size_t switch_row_current_ = 0;
  std::vector<double> switch_row_;

  // Effective-GoF cache (keyed on the frames-remaining clamp; 0 = beyond
  // every branch's GoF).
  int gof_clamp_cached_ = -1;
  std::vector<int> gof_int_;
  std::vector<double> gof_ms_;

  DecisionCostTable table_;

  // Scratch for the conservative light-feature copy (count + 1 headroom).
  std::vector<double> conservative_;

  Counters counters_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_SCHEDULER_SESSION_H_
