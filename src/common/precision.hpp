// Precision policy for the inner compute kernels.
//
// kFp64 is the default everywhere and reproduces the seed numerics
// bitwise. kMixed enables FP32 inner iterations in the Sternheimer block
// solvers (with FP64 residual replacement on the restart boundary the
// resilience ladder owns). It is read in one place,
// SternheimerOptions::precision, where Chi0Applier binds the FP32 inner
// operator; the ground state is FP64 under either policy. See DESIGN.md
// "Precision model" for the contract.
#pragma once

#include <stdexcept>
#include <string>

namespace rsrpa::common {

enum class Precision { kFp64, kMixed };

inline Precision precision_from_string(const std::string& s) {
  if (s == "fp64") return Precision::kFp64;
  if (s == "mixed") return Precision::kMixed;
  throw std::invalid_argument("unknown PRECISION '" + s +
                              "' (expected fp64|mixed)");
}

inline const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp64: return "fp64";
    case Precision::kMixed: return "mixed";
  }
  return "fp64";
}

}  // namespace rsrpa::common
