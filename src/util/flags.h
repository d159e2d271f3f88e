// Minimal command-line flag parsing for the tools and benches.
//
// Supports --key=value and --key value forms plus boolean switches
// (--flag / --no-flag). Unknown flags are collected as errors so tools can
// print usage instead of silently ignoring typos.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qa {

class Flags {
 public:
  // Parses argv (skipping argv[0]). Positional arguments (no leading --)
  // are kept in order.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  // Numeric getters return `def` when the flag is absent or empty, and
  // throw std::invalid_argument naming the flag and the value unless the
  // whole value parses: "5s", "abc" and an overflowing "1e400" are errors,
  // never silently truncated to a number.
  double get_double(const std::string& name, double def) const;
  int64_t get_int(const std::string& name, int64_t def) const;
  // True for --name, false for --no-name, `def` otherwise.
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Names the caller never queried — typo detection. Call after all gets.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

// The canonical diagnostic for an enumerated flag set to something outside
// its value set: "unknown --preset 'fig99' (valid values: fig12, fig13)".
// Every tool routes its --preset/--backend rejections through this so the
// message always names the alternatives the user can actually type.
std::string invalid_choice(const std::string& flag, const std::string& got,
                           const std::vector<std::string>& valid);

}  // namespace qa
