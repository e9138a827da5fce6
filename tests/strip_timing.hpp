// Run-report comparison for the bitwise contracts (kill and resume, the
// job service): strip the wall-clock fields that legitimately differ
// between two runs of the same computation, then compare the rest byte
// for byte.
#pragma once

#include <set>
#include <string>

#include "obs/json.hpp"

namespace rsrpa {

/// The timing keys an RpaResult report carries: per-record and per-solver
/// `seconds`, the run's `total_seconds` and the kernel `timers`.
inline bool timing_key(const std::string& k) {
  static const std::set<std::string> kStrip = {"seconds", "total_seconds",
                                               "timers"};
  return kStrip.count(k) > 0;
}

/// `j` with every timing_key removed, at any depth.
inline obs::Json strip_timing(const obs::Json& j) {
  if (j.is_object()) {
    obs::Json out = obs::Json::object();
    for (const auto& [key, value] : j.as_object())
      if (!timing_key(key)) out[key] = strip_timing(value);
    return out;
  }
  if (j.is_array()) {
    obs::Json out = obs::Json::array();
    for (const obs::Json& v : j.as_array()) out.push_back(strip_timing(v));
    return out;
  }
  return j;
}

}  // namespace rsrpa
