// Error handling for rsrpa.
//
// All precondition and invariant failures throw rsrpa::Error with a message
// that includes the failing expression and source location. Numerical
// breakdowns (e.g. a singular block in COCG) use the dedicated
// NumericalBreakdown type so callers can distinguish recoverable solver
// events from programming errors.
#pragma once

#include <stdexcept>
#include <string>

namespace rsrpa {

/// Base class for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A numerical breakdown inside an iterative method (singular pivot,
/// loss of conjugacy, non-finite residual). Recoverable by the caller,
/// e.g. by restarting with a different block size.
class NumericalBreakdown : public Error {
 public:
  explicit NumericalBreakdown(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void require_failed(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  throw Error(std::string("requirement failed: ") + expr + " at " + file +
              ":" + std::to_string(line) + (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace rsrpa

/// Precondition check that stays enabled in release builds. These guard
/// user-facing API boundaries; inner loops use plain asserts.
#define RSRPA_REQUIRE(expr)                                              \
  do {                                                                   \
    if (!(expr)) ::rsrpa::detail::require_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define RSRPA_REQUIRE_MSG(expr, msg)                                     \
  do {                                                                   \
    if (!(expr)) ::rsrpa::detail::require_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)
