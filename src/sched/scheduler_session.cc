#include "src/sched/scheduler_session.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace litereconfig {

namespace {

// Exact-input match: a cached column is reused only when the fresh
// computation would read the very same bits.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

const DecisionCostTable& SchedulerSession::TableFor(const TrainedModels& models,
                                                    const SchedulerConfig& config,
                                                    const DecisionContext& ctx,
                                                    const std::vector<double>& light) {
  const BranchSpace& space = *models.space;
  const size_t n = space.size();
  if (space_ != &space) {
    // First use (or a different space): reset every cache and size the columns.
    space_ = &space;
    max_gof_ = 0;
    for (size_t b = 0; b < n; ++b) {
      max_gof_ = std::max(max_gof_, space.at(b).gof);
    }
    switch_row_valid_ = false;
    gof_clamp_cached_ = -1;
    latency_valid_ = false;
    table_.branch_ms_.assign(n, 0.0);
    table_.switch_ms_.assign(n, 0.0);
    table_.gof_.assign(n, 0.0);
    gof_int_.assign(n, 0);
  }
  ++counters_.decisions;
  ++counters_.table_builds;

  // Effective-GoF columns: the same min(branch.gof, frames_remaining) ints the
  // reference FrameCostMs computes, recomputed only when the clamp moved. Every
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
      table_.gof_[b] = static_cast<double>(effective_gof);
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
        table_.switch_ms_[b] = models.switching->OfflineCostMs(from, space.at(b));
      }
    } else {
      std::fill(table_.switch_ms_.begin(), table_.switch_ms_.end(), 0.0);
    }
    switch_row_valid_ = true;
    switch_row_charged_ = charge_switch;
    switch_row_current_ = current;
  }

  // Latency column: the conservative prediction per branch under the
  // availability mask, recomputed unless every input matches bit for bit.
  // Every expression matches the reference FrameCostMs term for term on the
  // same doubles — the bit-exactness contract of the fast path. The same
  // count headroom applies: the tracked-object population can grow by the time
  // the GoF runs, so the tracker cost is predicted at count + 1.
  if (latency_valid_ && latency_gof_clamp_ == gof_clamp &&
      latency_gpu_available_ == ctx.gpu_available &&
      SameBits(latency_gpu_cal_, ctx.gpu_cal) &&
      SameBits(latency_cpu_cal_, ctx.cpu_cal) && SameBits(latency_light_, light)) {
    ++counters_.latency_column_reuses;
  } else {
    conservative_ = light;
    conservative_[2] += 1.0 / 8.0;
    for (size_t b = 0; b < n; ++b) {
      const Branch& branch = space.at(b);
      table_.branch_ms_[b] =
          (!ctx.gpu_available && !branch.detector.cpu)
              ? std::numeric_limits<double>::infinity()
              : models.latency.PredictFrameMs(b, conservative_, ctx.gpu_cal,
                                              ctx.cpu_cal, gof_int_[b]);
    }
    latency_valid_ = true;
    latency_light_ = light;
    latency_gpu_cal_ = ctx.gpu_cal;
    latency_cpu_cal_ = ctx.cpu_cal;
    latency_gpu_available_ = ctx.gpu_available;
    latency_gof_clamp_ = gof_clamp;
  }

  // The SLO limit is recomputed every call: it is the one term the budget
  // moves.
  table_.slo_limit_ms_ = SloLimitMs(config, ctx);
  return table_;
}

}  // namespace litereconfig
