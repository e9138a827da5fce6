#include "common/timer.hpp"

namespace rsrpa {

void KernelTimers::add(const std::string& name, double seconds) {
  buckets_[name] += seconds;
}

double KernelTimers::get(const std::string& name) const {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? 0.0 : it->second;
}

double KernelTimers::total() const {
  double sum = 0.0;
  for (const auto& [name, secs] : buckets_) sum += secs;
  return sum;
}

std::vector<std::pair<std::string, double>> KernelTimers::entries() const {
  return {buckets_.begin(), buckets_.end()};
}

void KernelTimers::merge(const KernelTimers& other) {
  for (const auto& [name, secs] : other.buckets_) buckets_[name] += secs;
}

}  // namespace rsrpa
