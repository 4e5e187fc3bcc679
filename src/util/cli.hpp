// Minimal `--key=value` / `--flag` command-line parser plus environment
// helpers. All benches share it; no external dependency.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dfsim {

class CliOptions {
 public:
  CliOptions(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of `--key=value`; empty string when absent or valueless.
  [[nodiscard]] std::string get(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;

  /// Numeric lookups: `fallback` when the flag is absent or valueless; a
  /// value that does not parse throws std::invalid_argument naming the flag.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Strict parses of one value of `--key` (also an item of a list flag),
  /// throwing std::invalid_argument naming the flag.
  [[nodiscard]] static std::int64_t to_int(const std::string& key,
                                           const std::string& text);
  [[nodiscard]] static double to_double(const std::string& key,
                                        const std::string& text);

  /// Environment variable lookup with fallback.
  [[nodiscard]] static std::string env(const std::string& name,
                                       const std::string& fallback);
  /// Integer environment lookup that tolerates unset or garbage values.
  [[nodiscard]] static std::int64_t env_int(const std::string& name,
                                            std::int64_t fallback);

  /// Tolerant parses for the env paths. Return the fallback on
  /// empty/garbage input rather than throwing.
  [[nodiscard]] static std::int64_t parse_int(const std::string& text,
                                              std::int64_t fallback);
  [[nodiscard]] static double parse_double(const std::string& text,
                                           double fallback);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  struct Option {
    std::string key;
    std::string value;
    bool has_value = false;
  };
  [[nodiscard]] const Option* find(const std::string& key) const;

  std::vector<Option> options_;
  std::vector<std::string> positional_;
};

}  // namespace dfsim
