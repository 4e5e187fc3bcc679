#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <stdexcept>

namespace dfsim {

CliOptions::CliOptions(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      Option opt;
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        opt.key = arg.substr(2);
      } else {
        opt.key = arg.substr(2, eq - 2);
        opt.value = arg.substr(eq + 1);
        opt.has_value = true;
      }
      options_.push_back(std::move(opt));
    } else {
      positional_.push_back(arg);
    }
  }
}

const CliOptions::Option* CliOptions::find(const std::string& key) const {
  // Last occurrence wins, so scripted callers can append overrides.
  const Option* found = nullptr;
  for (const Option& opt : options_) {
    if (opt.key == key) found = &opt;
  }
  return found;
}

bool CliOptions::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::string CliOptions::get(const std::string& key) const {
  const Option* opt = find(key);
  return opt != nullptr ? opt->value : std::string();
}

std::string CliOptions::get(const std::string& key,
                            const std::string& fallback) const {
  const Option* opt = find(key);
  return (opt != nullptr && opt->has_value) ? opt->value : fallback;
}

namespace {

std::optional<std::int64_t> read_int(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::optional<double> read_double(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return std::nullopt;
  return value;
}

}  // namespace

std::int64_t CliOptions::parse_int(const std::string& text,
                                   std::int64_t fallback) {
  return read_int(text).value_or(fallback);
}

double CliOptions::parse_double(const std::string& text, double fallback) {
  return read_double(text).value_or(fallback);
}

std::int64_t CliOptions::to_int(const std::string& key,
                                const std::string& text) {
  if (const auto value = read_int(text)) return *value;
  throw std::invalid_argument("--" + key + "=" + text + " is not an integer");
}

double CliOptions::to_double(const std::string& key, const std::string& text) {
  if (const auto value = read_double(text)) return *value;
  throw std::invalid_argument("--" + key + "=" + text + " is not a number");
}

std::int64_t CliOptions::get_int(const std::string& key,
                                 std::int64_t fallback) const {
  const Option* opt = find(key);
  return opt != nullptr && opt->has_value ? to_int(key, opt->value) : fallback;
}

double CliOptions::get_double(const std::string& key, double fallback) const {
  const Option* opt = find(key);
  return opt != nullptr && opt->has_value ? to_double(key, opt->value)
                                          : fallback;
}

std::string CliOptions::env(const std::string& name,
                            const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  return value != nullptr ? std::string(value) : fallback;
}

std::int64_t CliOptions::env_int(const std::string& name,
                                 std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  return parse_int(value, fallback);
}

}  // namespace dfsim
