// Minimal command-line argument parsing for the tools and benches.
//
// Supports "--key=value" and boolean "--flag" forms. Unknown keys are
// collected so callers can reject typos with a helpful message. No
// external dependencies; order-independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace femtocr::util {

class Args {
 public:
  /// Parses argv[1..). Throws std::logic_error on malformed tokens (not
  /// starting with "--").
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Typed getters with defaults. Throw std::logic_error when the value
  /// does not parse as the requested type.
  std::string get(const std::string& key, const std::string& fallback) const;
  double get(const std::string& key, double fallback) const;
  std::int64_t get(const std::string& key, std::int64_t fallback) const;
  bool get(const std::string& key, bool fallback) const;

  /// Integer getter for a count flag (--runs, --threads): also throws
  /// std::logic_error, naming the flag, when the value is below `min`.
  std::size_t get_count(const std::string& key, std::size_t fallback,
                        std::size_t min) const;

  /// Keys present on the command line but never queried via get()/has().
  /// Call after all gets to implement strict unknown-flag rejection.
  std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace femtocr::util
