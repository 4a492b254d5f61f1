// The one builder of DecisionCostTables, and the cross-call reuse state for
// one video stream's tables.
//
// A SchedulerSession belongs to one stream and prices every DecisionCostTable
// that stream asks for:
//
//   * single-tenant runs hold one per RunVideo call and route every GoF's
//     Decide through it;
//   * serving holds one per StreamSession, shared by the round's allocation
//     menu (BuildBranchMenu) and the round's decision (Decide). The menu is
//     priced at the unbudgeted context and the decision at the granted
//     budget; everything else in the two contexts is the same.
//
// Callers with no session of their own — Decide(ctx), SelectFeatures,
// BuildBranchMenu(..., nullptr) — price through a fresh one, whose first
// TableFor call computes every column.
//
// The session keeps one table and rebuilds it in place on every TableFor
// call, reusing each column whose own inputs did not change:
//
//   * the offline switch-cost row     — keyed on the current branch (one
//     SwitchingCostModel::OfflineCostMs, i.e. four pow() calls, per branch);
//   * the effective-GoF denominators  — keyed on the frames-remaining clamp;
//   * the latency-predictor column    — keyed on its exact inputs: the light
//     features, gpu_cal, cpu_cal, gpu_available and the GoF clamp, compared
//     bit for bit.
//
// In serving the round's decision reuses all three columns its menu just
// built: the two contexts differ only in the budget, which no column reads.
// The latency column misses when the decision masks the GPU differently from
// the menu (a pressure-ladder demotion, or a denied round with no CPU
// family). Across rounds, and across single-tenant GoFs, the switch row and
// GoF columns carry over while the stream keeps its branch and is not in its
// tail; the latency column practically never does, because the calibration
// drifts by at least one ulp per GoF.
//
// The SLO limit is recomputed every call: it is the one term the budget moves.
//
// Bit-exactness: every reused value is the exact double a fresh session would
// compute — each column is a pure function of its key — so tables, decisions
// and menus taken through a long-lived session are bit-identical to fresh
// ones and to DecideReference (property-tested in tests/sched_fastpath_test.cc
// and tests/serve_session_test.cc).
//
// Threading: a session is per-stream state, never used by two threads at
// once. In serving the control loop prices every menu before the round's
// ParallelFor hands each stream to one worker for its decision; the fan-out
// and its join order the two, so they never overlap.
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
    long decisions = 0;         // TableFor calls (decisions and menus)
    long decision_reuses = 0;   // always 0: decisions are never replayed
    long table_reuses = 0;      // always 0: every call rebuilds its table
    long table_builds = 0;      // cost tables rebuilt in place (one per call)
    long switch_row_reuses = 0; // switch-cost rows reused across rebuilds
    long latency_column_reuses = 0;  // latency columns reused across rebuilds
  };

  const Counters& counters() const { return counters_; }

  // Rebuilds the session's DecisionCostTable in place for `ctx`, reusing the
  // columns whose own inputs still match (resetting every cache when the
  // branch space changes). The reference stays valid until the next TableFor
  // call.
  const DecisionCostTable& TableFor(const TrainedModels& models,
                                    const SchedulerConfig& config,
                                    const DecisionContext& ctx,
                                    const std::vector<double>& light);

 private:
  const BranchSpace* space_ = nullptr;
  int max_gof_ = 0;

  // The table's columns are the caches: each is rewritten only when its key
  // below moved.
  DecisionCostTable table_;

  // Switch-cost row key: whether switching is charged and from which branch.
  bool switch_row_valid_ = false;
  bool switch_row_charged_ = false;
  size_t switch_row_current_ = 0;

  // Effective-GoF key: the frames-remaining clamp (0 = beyond every branch's
  // GoF). gof_int_ holds the same lengths as ints for the latency predictor.
  int gof_clamp_cached_ = -1;
  std::vector<int> gof_int_;

  // Latency column key.
  bool latency_valid_ = false;
  std::vector<double> latency_light_;
  double latency_gpu_cal_ = 0.0;
  double latency_cpu_cal_ = 0.0;
  bool latency_gpu_available_ = true;
  int latency_gof_clamp_ = -1;

  // Scratch for the conservative light-feature copy.
  std::vector<double> conservative_;

  Counters counters_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_SCHEDULER_SESSION_H_
