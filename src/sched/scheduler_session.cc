#include "src/sched/scheduler_session.h"

#include <algorithm>
#include <limits>

namespace litereconfig {

const DecisionCostTable& SchedulerSession::TableFor(const TrainedModels& models,
                                                    const SchedulerConfig& config,
                                                    const DecisionContext& ctx,
                                                    const std::vector<double>& light) {
  const BranchSpace& space = *models.space;
  const size_t n = space.size();
  if (space_ != &space) {
    // First use (or a different space): reset both caches and size the rows.
    space_ = &space;
    max_gof_ = 0;
    for (size_t b = 0; b < n; ++b) {
      max_gof_ = std::max(max_gof_, space.at(b).gof);
    }
    switch_row_valid_ = false;
    gof_clamp_cached_ = -1;
    switch_row_.assign(n, 0.0);
    gof_int_.assign(n, 0);
    gof_ms_.assign(n, 0.0);
  }
  ++counters_.decisions;
  ++counters_.table_builds;

  // Effective-GoF columns: the same min(branch.gof, frames_remaining) ints the
  // fresh Build computes, recomputed only when the clamp moved. Every
  // frames_remaining at or beyond the longest GoF leaves all effective lengths
  // uncapped, so those contexts share one clamp value.
  const int gof_clamp = (ctx.frames_remaining > 0 && ctx.frames_remaining < max_gof_)
                            ? ctx.frames_remaining
                            : 0;
  if (gof_clamp_cached_ != gof_clamp) {
    for (size_t b = 0; b < n; ++b) {
      int effective_gof = space.at(b).gof;
      if (gof_clamp > 0) {
        effective_gof = std::min(effective_gof, gof_clamp);
      }
      gof_int_[b] = effective_gof;
      gof_ms_[b] = static_cast<double>(effective_gof);
    }
    gof_clamp_cached_ = gof_clamp;
  }

  // Switch-cost row: OfflineCostMs(current, b) is a pure function of the
  // branch pair and the device, so the row depends only on (charged, current).
  const bool charge_switch = config.use_switching_cost &&
                             ctx.current_branch.has_value() &&
                             models.switching.has_value();
  const size_t current = charge_switch ? *ctx.current_branch : 0;
  if (switch_row_valid_ && switch_row_charged_ == charge_switch &&
      switch_row_current_ == current) {
    ++counters_.switch_row_reuses;
  } else {
    if (charge_switch) {
      const Branch& from = space.at(current);
      for (size_t b = 0; b < n; ++b) {
        switch_row_[b] = models.switching->OfflineCostMs(from, space.at(b));
      }
    } else {
      std::fill(switch_row_.begin(), switch_row_.end(), 0.0);
    }
    switch_row_valid_ = true;
    switch_row_charged_ = charge_switch;
    switch_row_current_ = current;
  }

  // Assemble the table in place (vectors keep their capacity across rebuilds).
  // Every expression matches DecisionCostTable::Build term for term on the
  // same doubles — the bit-exactness contract of the fast path.
  conservative_ = light;
  conservative_[2] += 1.0 / 8.0;
  table_.slo_limit_ms_ = SloLimitMs(config, ctx);
  table_.switch_ms_ = switch_row_;
  table_.gof_ = gof_ms_;
  table_.branch_ms_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    const Branch& branch = space.at(b);
    table_.branch_ms_[b] =
        (!ctx.gpu_available && !branch.detector.cpu)
            ? std::numeric_limits<double>::infinity()
            : models.latency.PredictFrameMs(b, conservative_, ctx.gpu_cal,
                                            ctx.cpu_cal, gof_int_[b]);
  }
  return table_;
}

}  // namespace litereconfig
