#include "src/sched/cost_table.h"

#include <limits>

namespace litereconfig {

size_t CheapestBranchIndex(size_t branch_count,
                           const std::function<double(size_t)>& cost_ms) {
  size_t cheapest = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < branch_count; ++b) {
    double ms = cost_ms(b);
    if (ms < cheapest_ms) {
      cheapest_ms = ms;
      cheapest = b;
    }
  }
  return cheapest;
}

size_t DecisionCostTable::Cheapest(double sched_ms) const {
  return CheapestBranchIndex(
      size(), [this, sched_ms](size_t b) { return CostMs(b, sched_ms); });
}

}  // namespace litereconfig
