#include "common/config.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace rsrpa {

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);

    auto colon = line.find(':');
    RSRPA_REQUIRE_MSG(colon != std::string::npos,
                      "config line " + std::to_string(lineno) + " lacks ':'");
    std::string key = line.substr(0, colon);
    if (auto kend = key.find_last_not_of(" \t"); kend != std::string::npos)
      key.erase(kend + 1);
    std::string value = line.substr(colon + 1);
    if (auto vstart = value.find_first_not_of(" \t"); vstart != std::string::npos)
      value.erase(0, vstart);
    else
      value.clear();
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  RSRPA_REQUIRE_MSG(in.good(), "cannot open config file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

const std::string& Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  RSRPA_REQUIRE_MSG(it != values_.end(), "missing config key " + key);
  return it->second;
}

int Config::get_int(const std::string& key) const {
  int v = 0;
  if (!parse_full_token(raw(key), v))
    throw Error("config key " + key + " is not an integer: '" + raw(key) +
                "'");
  return v;
}

double Config::get_double(const std::string& key) const {
  double v = 0.0;
  if (!parse_full_token(raw(key), v))
    throw Error("config key " + key + " is not a number: '" + raw(key) + "'");
  return v;
}

std::string Config::get_string(const std::string& key) const { return raw(key); }

std::vector<double> Config::get_doubles(const std::string& key) const {
  std::istringstream in(raw(key));
  std::vector<double> out;
  std::string tok;
  while (in >> tok) {
    double v = 0.0;
    if (!parse_full_token(tok, v))
      throw Error("config key " + key + " has non-numeric entry: '" + tok +
                  "'");
    out.push_back(v);
  }
  return out;
}

int Config::get_int_or(const std::string& key, int fallback) const {
  return has(key) ? get_int(key) : fallback;
}

double Config::get_double_or(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace rsrpa
