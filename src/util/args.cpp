#include "util/args.h"

#include <stdexcept>

#include "util/check.h"

namespace femtocr::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    FEMTOCR_CHECK(token.rfind("--", 0) == 0,
                  "arguments must start with '--': " + token);
    const std::string body = token.substr(2);
    FEMTOCR_CHECK(!body.empty(), "empty argument name");
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";  // boolean flag form
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
  for (const auto& [key, value] : values_) {
    (void)value;
    consumed_[key] = false;
  }
}

bool Args::has(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  consumed_[key] = true;
  return true;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  return it->second;
}

double Args::get(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    FEMTOCR_CHECK(pos == it->second.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::logic_error("--" + key + " expects a number, got '" +
                           it->second + "'");
  }
}

std::int64_t Args::get(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    FEMTOCR_CHECK(pos == it->second.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::logic_error("--" + key + " expects an integer, got '" +
                           it->second + "'");
  }
}

bool Args::get(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  consumed_[key] = true;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw std::logic_error("--" + key + " expects a boolean, got '" +
                         it->second + "'");
}

std::size_t Args::get_count(const std::string& key, std::size_t fallback,
                            std::size_t min) const {
  const std::int64_t v = get(key, static_cast<std::int64_t>(fallback));
  if (v < static_cast<std::int64_t>(min)) {
    throw std::logic_error("--" + key + " must be at least " +
                           std::to_string(min) + ", got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::vector<std::string> Args::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : consumed_) {
    if (!used) out.push_back(key);
  }
  return out;
}

}  // namespace femtocr::util
