// Strict number parsing for text that comes from outside the program:
// config files and the JSON payloads of checkpoints and reports.
#pragma once

#include <charconv>
#include <string>

namespace rsrpa {

/// Parse the WHOLE of `token` as a T. std::stoi/std::stoull accept
/// trailing garbage ("12x" parses as 12), wrap negatives into unsigned
/// types ("-5" loads as 2^64 - 5), and throw std::invalid_argument rather
/// than rsrpa::Error; std::from_chars must consume the entire token here
/// or the value is rejected. A single leading '+' is allowed (from_chars
/// does not take it, config authors reasonably might). Returns false on
/// any rejection, leaving the error message to the caller.
template <typename T>
bool parse_full_token(const std::string& token, T& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  if (first != last && *first == '+') ++first;
  if (first == last) return false;
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

}  // namespace rsrpa
