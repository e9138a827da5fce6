#include "support/load_balance.hpp"

#include <algorithm>
#include <numeric>

namespace rsrpa::par {

double ScheduleResult::imbalance() const {
  const double total =
      std::accumulate(rank_loads.begin(), rank_loads.end(), 0.0);
  const double avg = total / static_cast<double>(rank_loads.size());
  return avg > 0.0 ? makespan / avg : 1.0;
}

namespace {

ScheduleResult finish(std::vector<double> loads) {
  ScheduleResult out;
  out.makespan = *std::max_element(loads.begin(), loads.end());
  out.rank_loads = std::move(loads);
  return out;
}

// Dispatch items in the given order, each to the least-loaded rank —
// the behavior of a manager handing work to whichever worker frees first.
ScheduleResult greedy_in_order(const std::vector<double>& items,
                               const std::vector<std::size_t>& order,
                               std::size_t p) {
  std::vector<double> loads(p, 0.0);
  for (std::size_t idx : order) {
    auto it = std::min_element(loads.begin(), loads.end());
    *it += items[idx];
  }
  return finish(std::move(loads));
}

}  // namespace

ScheduleResult static_schedule(const std::vector<double>& item_seconds,
                               std::size_t p) {
  RSRPA_REQUIRE(p >= 1 && !item_seconds.empty());
  const std::size_t n = item_seconds.size();
  std::vector<double> loads(p, 0.0);
  const std::size_t base = n / p, extra = n % p;
  std::size_t pos = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const std::size_t count = base + (r < extra ? 1 : 0);
    for (std::size_t k = 0; k < count; ++k) loads[r] += item_seconds[pos++];
  }
  return finish(std::move(loads));
}

ScheduleResult manager_worker_schedule(const std::vector<double>& item_seconds,
                                       std::size_t p) {
  RSRPA_REQUIRE(p >= 1 && !item_seconds.empty());
  std::vector<std::size_t> order(item_seconds.size());
  std::iota(order.begin(), order.end(), 0);
  return greedy_in_order(item_seconds, order, p);
}

ScheduleResult lpt_schedule(const std::vector<double>& item_seconds,
                            std::size_t p) {
  RSRPA_REQUIRE(p >= 1 && !item_seconds.empty());
  std::vector<std::size_t> order(item_seconds.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return item_seconds[a] > item_seconds[b];
  });
  return greedy_in_order(item_seconds, order, p);
}

}  // namespace rsrpa::par
